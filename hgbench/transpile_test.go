package main

import (
	"testing"

	heterogen "github.com/hetero/heterogen"
)

// transpileP8 runs P8 the way transpile-subjects does, at the given
// fuzz seed, and applies Table 3's expectations to the result.
func transpileP8(t *testing.T, seed int64) string {
	t.Helper()
	in, err := loadSubjects()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range in {
		if s.ID != "P8" {
			continue
		}
		cache, err := heterogen.NewCache(heterogen.CacheOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := heterogen.Transpile(s.Source, heterogen.Options{Kernel: s.Kernel, HostMain: s.HostMain,
			Fuzz: quickFuzz(seed), Workers: 1, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return subjectCheck(s, res)
	}
	t.Fatal("P8 is not in the transpile-subjects list")
	return ""
}

// P8 meets Table 3 at the fuzz seed the workload uses. At fuzz seeds 7
// and 15 its design is compatible and behaviour-preserving but not
// faster than the CPU, so Improved is false: a finding about the
// program that the workload, at its fixed fuzz seed, cannot show. This
// test reproduces it and logs the outcome without failing on it.
func TestP8FuzzSeedFinding(t *testing.T) {
	if why := transpileP8(t, fuzzSeed); why != "" {
		t.Errorf("P8 at the workload's fuzz seed %d: %s", fuzzSeed, why)
	}
	if why := transpileP8(t, 7); why != "" {
		t.Logf("finding: P8 at fuzz seed 7: %s", why)
	} else {
		t.Logf("P8 meets Table 3 at fuzz seed 7; the finding no longer reproduces")
	}
}
