package main

import (
	"strings"
	"syscall"
	"testing"
	"time"
)

const procStat = `cpu  4705 356 584 3699 23 23 0 1234 0 0
cpu0 1393 280 283 1838 5 8 0 600 0 0
cpu1 3312 76 301 1861 18 15 0 634 0 0
intr 114930548 113199788 3 0 5 263 0 4 [... lots more numbers ...]
ctxt 1990473
`

func TestParseSteal(t *testing.T) {
	got, err := parseSteal(strings.NewReader(procStat))
	if err != nil || got != 12.34 {
		t.Fatalf("parseSteal = %g, %v; want 12.34", got, err)
	}
	for _, bad := range []string{
		"",
		"cpu0 1 2 3 4 5 6 7 8\n",     // no aggregate line
		"cpu 1 2 3 4 5 6 7\n",        // kernel without a steal column
		"cpu 1 2 3 4 5 6 7 x 9 10\n", // unparsable
	} {
		if _, err := parseSteal(strings.NewReader(bad)); err == nil {
			t.Errorf("parseSteal(%q) succeeded", bad)
		}
	}
}

func TestParseCPUModel(t *testing.T) {
	in := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor @ 2.10GHz\nflags\t: fpu\n"
	if got := parseCPUModel(strings.NewReader(in)); got != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("parseCPUModel = %q", got)
	}
	if got := parseCPUModel(strings.NewReader("processor : 0\n")); got != "unknown" {
		t.Fatalf("parseCPUModel without a model = %q", got)
	}
}

func TestFromRusage(t *testing.T) {
	ru := syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 2, Usec: 500000},
		Stime:  syscall.Timeval{Sec: 0, Usec: 250},
		Maxrss: 40960,
	}
	u := fromRusage(&ru)
	if want := 2500250 * time.Microsecond; u.CPU != want {
		t.Errorf("CPU = %v, want %v", u.CPU, want)
	}
	if u.MaxRSSK != 40960 {
		t.Errorf("MaxRSSK = %d", u.MaxRSSK)
	}
}

func TestSelfUsageAdvances(t *testing.T) {
	u0 := selfUsage()
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	u1 := selfUsage()
	if u1.CPU <= u0.CPU || u1.MaxRSSK <= 0 {
		t.Fatalf("getrusage did not advance: %+v -> %+v", u0, u1)
	}
}

func TestParseVmHWM(t *testing.T) {
	in := "Name:\thgbench\nVmPeak:\t  812340 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   20480 kB\n"
	if got, err := parseVmHWM(strings.NewReader(in)); err != nil || got != 40 {
		t.Fatalf("parseVmHWM = %g, %v; want 40", got, err)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}
