package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/hetero/heterogen/internal/obs"
)

// span is one timed interval of a traced run. Times are offsets from
// the start of the run; Parent is 0 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the duration minus the part of it the span's children
	// cover, filled in when the trace is written.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant to an offset from the run start.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

// begin opens a span at start and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	ns := t.at(start)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: ns, EndNS: ns})
	return id
}

// end closes span id at the given instant.
func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = t.at(at)
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := t.begin(name, parent, start)
	t.end(id, end)
	return id
}

// finish computes every span's self time: its duration minus the union
// of its children's intervals clipped to it.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].SelfNS = (out[i].EndNS - out[i].StartNS) - covered(out[i], kids[out[i].ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(p span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, p.StartNS), min(c.EndNS, p.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{t.finish()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stamped is one pipeline event with its arrival time.
type stamped struct {
	At    time.Time
	Type  obs.Type
	Phase string
}

// recorder is the benchmark's obs.Observer: it keeps the arrival time
// of the events the per-layer numbers are computed from and drops the
// rest. It is safe for concurrent use.
type recorder struct {
	mu     sync.Mutex
	events []stamped
}

func (r *recorder) Emit(e obs.Event) {
	switch e.Type {
	case obs.EvPhaseStart, obs.EvPhaseEnd, obs.EvFuzzExec, obs.EvCandidate:
	default:
		return
	}
	s := stamped{At: time.Now(), Type: e.Type}
	if e.Phase != nil {
		s.Phase = e.Phase.Name
	}
	r.mu.Lock()
	r.events = append(r.events, s)
	r.mu.Unlock()
}

// take returns the recorded events and starts a fresh log.
func (r *recorder) take() []stamped {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := r.events
	r.events = nil
	return ev
}

// phaseSpans turns one pipeline run's phase brackets into child spans
// of parent and returns the fuzz exec times, the gap between
// consecutive fuzz_exec events with the first measured from the fuzz
// phase start, and the number of repair_candidate events.
func phaseSpans(t *tracer, parent int, events []stamped) (execs []time.Duration, candidates int) {
	open := map[string]time.Time{}
	var last time.Time
	for _, e := range events {
		switch e.Type {
		case obs.EvPhaseStart:
			open[e.Phase] = e.At
			if e.Phase == "fuzz" {
				last = e.At
			}
		case obs.EvPhaseEnd:
			if st, ok := open[e.Phase]; ok {
				t.add(e.Phase, parent, st, e.At)
				delete(open, e.Phase)
			}
		case obs.EvFuzzExec:
			if !last.IsZero() {
				execs = append(execs, e.At.Sub(last))
			}
			last = e.At
		case obs.EvCandidate:
			candidates++
		}
	}
	return execs, candidates
}

// layerOf names the layer a span directly below a work item belongs
// to: a pipeline phase, a Repair call, or a job's HTTP calls.
func layerOf(name string) string {
	switch {
	case name == "fuzz", name == "profile", name == "repair":
		return name
	case strings.HasPrefix(name, "repair."):
		return "repair"
	case strings.HasPrefix(name, "job."):
		return "serve"
	}
	return ""
}

// layerTimes reads a traced pass's spans. The root's children are the
// work items (subjects, batches, clients) and their children are layer
// spans. trace.wall_s is the union of the items; core.other_s is the
// items' self time, the part no layer span covers; a layer's busy time
// is the sum of its spans' durations, and a repair.* span also counts
// under its own name. When items run at once (serve-mixed's clients),
// every time is divided by the mean number of items in flight. The busy
// times and core.other_s add up to trace.wall_s only if each item's
// layer spans are disjoint and lie inside it; the returned problem says
// when they do not.
func layerTimes(spans []span) (map[string]float64, string) {
	depth := map[int]int{} // 0 for the root, 1 for items, 2 for layer spans
	var root *span
	var itemNS, otherNS int64
	busyNS := map[string]int64{}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			if root != nil {
				return nil, fmt.Sprintf("trace has two root spans, %q and %q", root.Name, s.Name)
			}
			root, depth[s.ID] = s, 0
			continue
		}
		pd, ok := depth[s.Parent]
		if !ok {
			return nil, fmt.Sprintf("span %q is recorded before its parent", s.Name)
		}
		depth[s.ID] = pd + 1
		switch pd + 1 {
		case 1:
			itemNS += s.EndNS - s.StartNS
			otherNS += s.SelfNS
		case 2:
			if layerOf(s.Name) == "" {
				return nil, fmt.Sprintf("span %q belongs to no layer", s.Name)
			}
			busyNS[s.Name] += s.EndNS - s.StartNS
		}
	}
	if root == nil || itemNS == 0 {
		return nil, "trace has no work-item spans"
	}
	wallNS := root.EndNS - root.StartNS - root.SelfNS
	scale := float64(wallNS) / float64(itemNS) / 1e9
	l := map[string]float64{"trace.wall_s": float64(wallNS) / 1e9, "core.other_s": float64(otherNS) * scale}
	for name, ns := range busyNS {
		l[layerOf(name)+".busy_s"] += float64(ns) * scale
		if strings.HasPrefix(name, "repair.") {
			l[name+".busy_s"] = float64(ns) * scale
		}
	}
	return l, reconcile(l)
}

// traceLayers fills the pass's span-derived layer metrics (see
// layerTimes) and records a problem if they do not reconcile.
func (p *pass) traceLayers(t *tracer) {
	l, msg := layerTimes(t.finish())
	for k, v := range l {
		p.Layers[k] = v
	}
	if msg != "" {
		p.Problems = append(p.Problems, msg)
	}
}
