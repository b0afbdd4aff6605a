package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/stat times. It is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// parseSteal returns the aggregate steal time in seconds from the
// contents of /proc/stat: the eighth value of the "cpu" line.
func parseSteal(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat: cpu line has %d fields, want at least 9", len(f))
		}
		ticks, err := strconv.ParseUint(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat: steal: %w", err)
		}
		return float64(ticks) / clockTicks, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// readSteal reads the host's cumulative steal seconds; -1 when the
// file is unavailable (the value is a diagnostic, never a gate).
func readSteal() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	s, err := parseSteal(f)
	if err != nil {
		return -1
	}
	return s
}

// parseCPUModel returns the first "model name" of /proc/cpuinfo.
func parseCPUModel(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	return parseCPUModel(f)
}

// usage is the part of a getrusage record the benchmark reports.
type usage struct {
	CPU     time.Duration // user + system
	MaxRSSK int64         // peak resident set, KiB
}

// fromRusage converts a getrusage record. Linux reports ru_maxrss in
// KiB.
func fromRusage(ru *syscall.Rusage) usage {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{CPU: tv(ru.Utime) + tv(ru.Stime), MaxRSSK: int64(ru.Maxrss)}
}

// selfUsage is getrusage(RUSAGE_SELF) for the benchmark process.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return fromRusage(&ru)
}

// resetPeakRSS returns freed memory to the OS and restarts the
// kernel's resident-set high-water mark, so that a later peakRSSMB
// covers only what runs in between. Without /proc/self/clear_refs
// (before Linux 4.0) the mark is not restarted and peakRSSMB reads the
// process's lifetime peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// parseVmHWM returns the VmHWM line of /proc/<pid>/status in MiB.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("/proc/self/status: VmHWM %q", v)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/self/status: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status: no VmHWM line")
}

// peakRSSMB is the process's resident-set high-water mark in MiB since
// the last resetPeakRSS, falling back to getrusage's lifetime peak.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		if mb, err := parseVmHWM(f); err == nil {
			return mb
		}
	}
	return float64(selfUsage().MaxRSSK) / 1024
}

// hostInfo is the per-run diagnostic record: not gated, kept so an
// unsteady set of runs can be traced to the host.
type hostInfo struct {
	StealS     float64 `json:"steal_s"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
}

func newHostInfo(stealS float64) hostInfo {
	return hostInfo{
		StealS:     stealS,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}
