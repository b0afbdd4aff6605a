package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// The metric lists the benchmark prints must match BENCHMARK.json.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(pass{Items: 1, Wall: 1}, 1)
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	layers, _ := perLayer(nil, nil)
	if len(layers) != len(spec.PerLayer) {
		t.Errorf("benchmark prints %d per-layer metrics, BENCHMARK.json lists %d", len(layers), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "repair-progen", "-trace", "2"},
		{"-workload", "repair-progen", "-seconds", "0"},
	} {
		if code := realMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("realMain(%q) = %d, want 2", args, code)
		}
	}
}
