package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestKernelListIsSeeded(t *testing.T) {
	a, b := mustJSON(t, kernelList(7, 300)), mustJSON(t, kernelList(7, 300))
	if !bytes.Equal(a, b) {
		t.Fatal("kernelList(7) differs between two calls")
	}
	if bytes.Equal(a, mustJSON(t, kernelList(8, 300))) {
		t.Fatal("kernelList(7) and kernelList(8) are identical")
	}
	multi := 0
	for _, k := range kernelList(7, 300) {
		if k.Multi {
			multi++
		}
	}
	if multi != 150 {
		t.Fatalf("%d of 300 kernels are multi-target, want 150", multi)
	}
}

var testTargets = []string{"a:1", "a:2", "b:1", "c:1"}

func TestJobListIsSeeded(t *testing.T) {
	a, b := mustJSON(t, jobList(7, 400, testTargets)), mustJSON(t, jobList(7, 400, testTargets))
	if !bytes.Equal(a, b) {
		t.Fatal("jobList(7) differs between two calls")
	}
	if bytes.Equal(a, mustJSON(t, jobList(8, 400, testTargets))) {
		t.Fatal("jobList(7) and jobList(8) are identical")
	}
}

func TestJobListMix(t *testing.T) {
	const n = jobsPerSecond * 10
	for _, seed := range []int64{1, 2, 3} {
		jobs := jobList(seed, n, testTargets)
		kinds := map[string]int{}
		transpile := map[string]bool{}
		repeats, twoTargets, repairOrTranspile := 0, 0, 0
		for _, j := range jobs {
			kinds[j.Kind]++
			if j.Repeat {
				repeats++
			}
			if j.Kind == kindTranspile {
				transpile[j.key()] = true
			}
			if j.Kind == kindTranspile || j.Kind == kindRepair {
				repairOrTranspile++
				if len(j.Targets) == 2 {
					twoTargets++
				}
			}
		}
		want := map[string]int{kindCheck: n * 40 / 100, kindRepair: n * 25 / 100, kindFuzz: n * 20 / 100, kindTranspile: n * 15 / 100}
		for k, c := range want {
			if kinds[k] != c {
				t.Errorf("seed %d: %d %s jobs, want %d", seed, kinds[k], k, c)
			}
		}
		// Five subjects, each alone and with its fixed target pair.
		if len(transpile) != 2*len(serveSubjects) {
			t.Errorf("seed %d: %d distinct transpile jobs, want %d", seed, len(transpile), 2*len(serveSubjects))
		}
		share := float64(repeats) / n
		t.Logf("seed %d: %d of %d jobs repeat an earlier job (%.3f)", seed, repeats, n, share)
		if share < 0.2 || share > 0.3 {
			t.Errorf("seed %d: repeat share %.3f, want about one in four", seed, share)
		}
		if s := float64(twoTargets) / float64(repairOrTranspile); s < 0.2 || s > 0.3 {
			t.Errorf("seed %d: two-target share %.3f, want about one in four", seed, s)
		}
	}
}

func TestRepeatsResubmitEarlierJobs(t *testing.T) {
	seen := map[string]bool{}
	for i, j := range jobList(5, 400, testTargets) {
		if j.Repeat != seen[j.key()] {
			t.Fatalf("job %d: Repeat=%v but key seen before=%v", i, j.Repeat, seen[j.key()])
		}
		seen[j.key()] = true
	}
}
