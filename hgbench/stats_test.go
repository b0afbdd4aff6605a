package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 50, 10, true},   // rank 10, 10 beyond
		{19, 50, 0, false},   // rank 10, 9 beyond
		{200, 95, 190, true}, // rank 190, 10 beyond
		{199, 95, 0, false},  // rank 190, 9 beyond
		{1000, 99, 990, true},
		{999, 99, 0, false},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := seq(30)
	percentile(xs, 50)
	if xs[0] != 30 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	g, n := geomean([]float64{1, 100, 0, -1})
	if n != 2 || math.Abs(g-10) > 1e-12 {
		t.Errorf("geomean = %g over %d values, want 10 over 2", g, n)
	}
}

func TestSetPercentileRecordsOmission(t *testing.T) {
	const name = "repair.kernel_p95_ms"
	p := pass{Layers: map[string]float64{}}
	p.setPercentile(name, make([]time.Duration, 50), 95)
	if _, ok := p.Layers[name]; ok {
		t.Fatal("p95 of 50 samples was reported")
	}
	m, omitted := perLayer(p.Layers, p.Omitted)
	if m[name].Value != 0 || !strings.Contains(omitted[name], "50 samples") {
		t.Fatalf("perLayer: value %g, omitted %q", m[name].Value, omitted[name])
	}
	p.setPercentile(name, make([]time.Duration, 200), 95)
	if _, ok := p.Layers[name]; !ok {
		t.Fatal("p95 of 200 samples was omitted")
	}
}
