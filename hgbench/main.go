// Command hgbench is the repository benchmark. It runs one workload per
// invocation, checks the program's outputs, and prints every metric by
// name and unit; the last line of its standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds this command and the
// hgserve daemon first):
//
//	hgbench -workload transpile-subjects -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run makes an untraced pass and then a
// traced pass over the same inputs, checks that both produce the same
// output digest, and reports the per-layer metrics of the traced pass.
// See README.md for the workloads and what each metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final stdout line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	Seed    int64
	Seconds int
	Hgserve string // path of the hgserve binary (serve-mixed)
	Out     string // run records, spans and scratch state
}

// pass is one timed execution of a workload's work list.
type pass struct {
	Wall  time.Duration
	CPU   time.Duration // of the process doing the work
	RSSMB float64       // median over work units of the resident-set peak
	Items int
	// Failed counts operations that failed: an error, a job that did
	// not finish. BadOutput counts finished items whose output failed
	// its check (a finding about the program, reported as a note).
	// ok_ratio counts both.
	Failed    int
	BadOutput int
	// Problems are harness-level inconsistencies (an operation erred,
	// a claimed verdict did not hold up); any makes the run incorrect.
	Problems []string
	Notes    []string // item check failures, printed as findings
	Digest   string
	DesignMS []float64 // simulated FPGA latency of each final design
	Coverage []float64 // branch coverage of each fuzzing campaign
	// Layers are the per-layer metrics; only a traced pass fills them.
	// Omitted names percentiles left out for too few samples.
	Layers  map[string]float64
	Omitted map[string]string
}

// workload is one named set of inputs. Setup builds the inputs and
// returns them with its timed repetitions (see repeatSetup and
// partedSetup); run makes one timed pass. A nil tracer means tracing is
// off.
type workload struct {
	name  string
	setup func(cfg config) (any, []time.Duration, error)
	run   func(cfg config, in any, t *tracer) (pass, error)
}

var workloads = []workload{
	{name: "transpile-subjects", setup: setupTranspile, run: runTranspile},
	{name: "repair-progen", setup: setupRepair, run: runRepair},
	{name: "serve-mixed", setup: setupServe, run: runServe},
}

// setupReps is how many times a costly set-up is timed; setup_s is the
// median.
const setupReps = 3

// repeatSetup runs a whole set-up reps times and checks that every
// repetition builds the same inputs.
func repeatSetup[T any](reps int, build func() (T, error)) (T, []time.Duration, error) {
	var in T
	var times []time.Duration
	first := ""
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		x, err := build()
		times = append(times, time.Since(t0))
		if err != nil {
			return in, nil, err
		}
		d := inputDigest(x)
		if i == 0 {
			first = d
		} else if d != first {
			return in, nil, fmt.Errorf("set-up is not deterministic: repetition %d built different inputs", i+1)
		}
		in = x
	}
	return in, times, nil
}

// partedSetup builds a work list too costly to build three times in
// setupReps equal parts, timing each; a part's time times setupReps
// estimates the whole set-up.
func partedSetup[T any](items int, build func(lo, hi int) ([]T, error)) ([]T, []time.Duration, error) {
	var in []T
	var times []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		part, err := build(i*items/setupReps, (i+1)*items/setupReps)
		times = append(times, time.Since(t0)*setupReps)
		if err != nil {
			return nil, nil, err
		}
		in = append(in, part...)
	}
	return in, times, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: transpile-subjects | repair-progen | serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "target length of one timed pass; sizes the repair-progen and serve-mixed work lists")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	hgserve := fs.String("hgserve", ".bench_build/hgserve", "hgserve binary for serve-mixed")
	out := fs.String("out", ".bench_build/hgbench", "directory for run records, spans and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: hgbench -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Hgserve: *hgserve, Out: *out}
	res, rec, err := measure(*w, cfg, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if b, err := json.MarshalIndent(rec, "", " "); err == nil {
		if err := os.WriteFile(filepath.Join(*out, tag+".json"), b, 0o644); err != nil {
			fmt.Fprintln(stderr, "hgbench: record:", err)
		}
	}
	hb, _ := json.Marshal(rec.Host)
	fmt.Fprintf(stdout, "# host %s\n", hb)
	for _, n := range rec.Notes {
		fmt.Fprintf(stdout, "# finding %s\n", n)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(stdout, "# problem %s\n", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// record is the full run record written beside the result.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Traced   bool              `json:"traced"`
	Host     hostInfo          `json:"host"`
	SetupS   []float64         `json:"setup_s"`
	Digest   string            `json:"digest"`
	Result   outcome           `json:"result"`
	Notes    []string          `json:"notes,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Omitted  map[string]string `json:"omitted,omitempty"`
}

func measure(w workload, cfg config, traced bool, stderr io.Writer) (outcome, record, error) {
	steal0 := readSteal()
	rec := record{Workload: w.name, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: traced}

	in, times, err := w.setup(cfg)
	if err != nil {
		return outcome{}, rec, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	for _, d := range times {
		rec.SetupS = append(rec.SetupS, d.Seconds())
	}

	runtime.GC()
	fmt.Fprintf(stderr, "hgbench: %s seed %d: timed pass\n", w.name, cfg.Seed)
	p, err := w.run(cfg, in, nil)
	if err != nil {
		return outcome{}, rec, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.Digest = p.Digest
	rec.Notes, rec.Problems = append(rec.Notes, p.Notes...), append(rec.Problems, p.Problems...)
	res := outcome{Attempted: p.Items, Failed: p.Failed}

	if !traced {
		res.Metrics = endToEnd(p, median(rec.SetupS))
	} else {
		runtime.GC()
		fmt.Fprintf(stderr, "hgbench: %s seed %d: traced pass\n", w.name, cfg.Seed)
		t := newTracer()
		pt, err := w.run(cfg, in, t)
		if err != nil {
			return outcome{}, rec, fmt.Errorf("%s: traced: %w", w.name, err)
		}
		if pt.Digest != p.Digest {
			rec.Problems = append(rec.Problems, "traced and untraced passes produced different output digests")
		}
		rec.Problems = append(rec.Problems, pt.Problems...)
		spans := filepath.Join(cfg.Out, fmt.Sprintf("%s-seed%d-spans.json", w.name, cfg.Seed))
		if err := t.write(spans); err != nil {
			fmt.Fprintln(stderr, "hgbench: spans:", err)
		}
		pt.Layers["trace.overhead_ratio"] = pt.Wall.Seconds() / p.Wall.Seconds()
		res.Metrics, rec.Omitted = perLayer(pt.Layers, pt.Omitted)
	}
	res.Correct = len(rec.Problems) == 0
	rec.Host = newHostInfo(readSteal() - steal0)
	rec.Result = res
	return res, rec, nil
}

// endToEnd builds the untraced metrics of one pass.
func endToEnd(p pass, setupS float64) map[string]metric {
	design, _ := geomean(p.DesignMS)
	ok := 1.0
	if p.Items > 0 {
		ok = 1 - float64(p.Failed+p.BadOutput)/float64(p.Items)
	}
	return map[string]metric{
		"setup_s":           {setupS, "s"},
		"wall_s":            {p.Wall.Seconds(), "s"},
		"cpu_s":             {p.CPU.Seconds(), "s"},
		"peak_rss_mb":       {p.RSSMB, "MB"},
		"ok_ratio":          {ok, "ratio"},
		"items_per_s":       {float64(p.Items) / p.Wall.Seconds(), "1/s"},
		"design_ms_geomean": {design, "sim_ms"},
		"coverage_mean":     {mean(p.Coverage), "ratio"},
	}
}

// layerBusy names the per-layer busy times that, with core.other_s,
// partition the traced wall time.
var layerBusy = []string{"fuzz.busy_s", "profile.busy_s", "repair.busy_s", "serve.busy_s"}

// reconcile checks that the layer busy times plus core.other_s add up
// to the traced wall time and that no layer claims more than it.
func reconcile(l map[string]float64) string {
	sum := l["core.other_s"]
	for _, k := range layerBusy {
		sum += l[k]
	}
	wall := l["trace.wall_s"]
	if d := sum - wall; d > 1e-6*wall || d < -1e-6*wall {
		return fmt.Sprintf("layers do not reconcile: busy + other = %.6f s, traced wall = %.6f s", sum, wall)
	}
	if l["core.other_s"] < 0 {
		return fmt.Sprintf("layers claim %.6f s more than the traced wall time", -l["core.other_s"])
	}
	return ""
}

// perLayerNames is every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not exercise, or a
// percentile with fewer than ten samples beyond it, reads 0 and is
// listed in the run record's "omitted" map.
var perLayerNames = map[string]string{
	"fuzz.busy_s":                 "s",
	"fuzz.execs":                  "count",
	"fuzz.execs_per_s":            "1/s",
	"fuzz.exec_p50_ms":            "ms",
	"fuzz.exec_p99_ms":            "ms",
	"profile.busy_s":              "s",
	"repair.busy_s":               "s",
	"repair.candidates":           "count",
	"repair.candidates_per_s":     "1/s",
	"repair.accept_ratio":         "ratio",
	"repair.style_reject_ratio":   "ratio",
	"repair.hls_invocations":      "count",
	"repair.iterations":           "count",
	"repair.kernel_p50_ms":        "ms",
	"repair.kernel_p95_ms":        "ms",
	"repair.single_target.busy_s": "s",
	"repair.multi_target.busy_s":  "s",
	"core.other_s":                "s",
	"serve.busy_s":                "s",
	"serve.latency_p50_ms":        "ms",
	"serve.latency_p95_ms":        "ms",
	"serve.submit_p50_ms":         "ms",
	"serve.queue_wait_p50_ms":     "ms",
	"serve.queue_wait_p95_ms":     "ms",
	"serve.check.run_p50_ms":      "ms",
	"serve.repair.run_p50_ms":     "ms",
	"serve.fuzz.run_p50_ms":       "ms",
	"serve.transpile.run_p50_ms":  "ms",
	"serve.rejected":              "count",
	"serve.failed":                "count",
	"evalcache.hit_ratio":         "ratio",
	"trace.overhead_ratio":        "ratio",
	"trace.wall_s":                "s",
}

func init() {
	for _, id := range transpileSubjects {
		perLayerNames["subject."+id+".wall_s"] = "s"
	}
}

// perLayer builds the traced metrics: every name in perLayerNames.
func perLayer(l map[string]float64, omittedPct map[string]string) (map[string]metric, map[string]string) {
	m := map[string]metric{}
	omitted := map[string]string{}
	for name, unit := range perLayerNames {
		v, ok := l[name]
		if why, pct := omittedPct[name]; pct {
			omitted[name] = why
		} else if !ok {
			omitted[name] = "not exercised by this workload"
		}
		m[name] = metric{v, unit}
	}
	return m, omitted
}

// setPercentile stores the p-th percentile of xs as a millisecond
// layer metric, or records why it is omitted when fewer than minBeyond
// samples lie beyond it.
func (p *pass) setPercentile(name string, xs []time.Duration, pct float64) {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x) / float64(time.Millisecond)
	}
	if v, ok := percentile(fs, pct); ok {
		p.Layers[name] = v
		return
	}
	if p.Omitted == nil {
		p.Omitted = map[string]string{}
	}
	p.Omitted[name] = fmt.Sprintf("%d samples: fewer than %d beyond the percentile", len(xs), minBeyond)
}

// inputDigest fingerprints a workload's set-up output; set-up must be
// deterministic for a seed.
func inputDigest(x any) string {
	b, err := json.Marshal(x)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return digestOf(string(b))
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
