package main

import (
	"testing"
	"time"

	"github.com/hetero/heterogen/internal/obs"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, at(0), at(100))
	tr.add("a", root, at(10), at(40))
	tr.add("b", root, at(30), at(60))  // overlaps a: union is 10..60
	tr.add("c", root, at(90), at(120)) // clipped to the parent: 90..100
	spans := tr.finish()
	if got, want := spans[root-1].SelfNS, (40 * time.Millisecond).Nanoseconds(); got != want {
		t.Fatalf("root self = %d ns, want %d", got, want)
	}
	if spans[1].SelfNS != spans[1].EndNS-spans[1].StartNS {
		t.Fatal("a leaf's self time is not its duration")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, time.Now()); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	tr.end(0, time.Now())
}

func TestPhaseSpans(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	ev := []stamped{
		{At: at(0), Type: obs.EvPhaseStart, Phase: "fuzz"},
		{At: at(2), Type: obs.EvFuzzExec},
		{At: at(5), Type: obs.EvFuzzExec},
		{At: at(6), Type: obs.EvPhaseEnd, Phase: "fuzz"},
		{At: at(6), Type: obs.EvPhaseStart, Phase: "repair"},
		{At: at(7), Type: obs.EvCandidate},
		{At: at(9), Type: obs.EvPhaseEnd, Phase: "repair"},
	}
	execs, cands := phaseSpans(tr, 0, ev)
	if len(execs) != 2 || execs[0] != 2*time.Millisecond || execs[1] != 3*time.Millisecond {
		t.Errorf("exec gaps = %v", execs)
	}
	if cands != 1 || len(tr.spans) != 2 {
		t.Errorf("candidates = %d, spans = %d", cands, len(tr.spans))
	}
	if d := tr.spans[0].EndNS - tr.spans[0].StartNS; tr.spans[0].Name != "fuzz" || d != (6*time.Millisecond).Nanoseconds() {
		t.Errorf("first phase span = %+v", tr.spans[0])
	}
}

// spanTree builds a trace: a root over 0..100 ms with the given items
// below it and layer spans below the items. Times are milliseconds.
func spanTree(items [][2]int, layers map[int][][2]int, names ...string) []span {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, at(0), at(100))
	n := 0
	for i, it := range items {
		id := tr.add("item", root, at(it[0]), at(it[1]))
		for _, ly := range layers[i] {
			tr.add(names[n%len(names)], id, at(ly[0]), at(ly[1]))
			n++
		}
	}
	return tr.finish()
}

func TestLayerTimesReconcile(t *testing.T) {
	// Two subjects with a gap between them; phases inside each.
	l, msg := layerTimes(spanTree([][2]int{{0, 40}, {50, 90}},
		map[int][][2]int{0: {{0, 30}, {30, 35}}, 1: {{50, 80}, {82, 88}}}, "fuzz", "repair"))
	if msg != "" {
		t.Fatal(msg)
	}
	wantLayers(t, l, map[string]float64{"trace.wall_s": 0.080, "fuzz.busy_s": 0.060, "repair.busy_s": 0.011, "core.other_s": 0.009})
}

func wantLayers(t *testing.T, l, want map[string]float64) {
	t.Helper()
	for k, v := range want {
		if d := l[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
}

func TestLayerTimesRepairTargets(t *testing.T) {
	l, msg := layerTimes(spanTree([][2]int{{0, 50}, {60, 100}},
		map[int][][2]int{0: {{0, 10}, {10, 40}}, 1: {{60, 90}}}, "repair.single_target", "repair.multi_target"))
	if msg != "" {
		t.Fatal(msg)
	}
	wantLayers(t, l, map[string]float64{"repair.busy_s": 0.070, "repair.single_target.busy_s": 0.040,
		"repair.multi_target.busy_s": 0.030, "core.other_s": 0.020, "trace.wall_s": 0.090})
}

func TestLayerTimesConcurrentItems(t *testing.T) {
	// Two clients over the whole run, each with jobs for 60 of 100 ms.
	l, msg := layerTimes(spanTree([][2]int{{0, 100}, {0, 100}},
		map[int][][2]int{0: {{0, 30}, {40, 70}}, 1: {{10, 70}}}, "job.check"))
	if msg != "" {
		t.Fatal(msg)
	}
	wantLayers(t, l, map[string]float64{"trace.wall_s": 0.100, "serve.busy_s": 0.060, "core.other_s": 0.040})
}

func TestLayerTimesCatchesDoubleCounting(t *testing.T) {
	for name, tree := range map[string][]span{
		"overlapping phases":        spanTree([][2]int{{0, 50}}, map[int][][2]int{0: {{0, 30}, {20, 40}}}, "fuzz", "profile"),
		"phase outside its subject": spanTree([][2]int{{0, 50}}, map[int][][2]int{0: {{40, 60}}}, "repair"),
		"span of no layer":          spanTree([][2]int{{0, 50}}, map[int][][2]int{0: {{0, 10}}}, "parse"),
	} {
		if _, msg := layerTimes(tree); msg == "" {
			t.Errorf("%s: reconciled", name)
		}
	}
}

func TestReconcile(t *testing.T) {
	l := map[string]float64{"trace.wall_s": 10, "fuzz.busy_s": 6, "repair.busy_s": 3, "core.other_s": 1}
	if err := reconcile(l); err != "" {
		t.Fatal(err)
	}
	l["core.other_s"] = 2
	if reconcile(l) == "" {
		t.Fatal("layers adding up to 11 s of a 10 s wall reconciled")
	}
	l = map[string]float64{"trace.wall_s": 10, "fuzz.busy_s": 12, "core.other_s": -2}
	if reconcile(l) == "" {
		t.Fatal("negative core.other_s reconciled")
	}
}
