package main

import (
	"fmt"
	"math/rand"
	"strings"

	heterogen "github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/progen"
	"github.com/hetero/heterogen/internal/subjects"
)

// Workload inputs are generated here and only here, from the workload
// seed. The program receives the generated sources; it never sees the
// seed that chose them.

// maxViolations is the planted-violation cap of hgconform's "wilder"
// sweep, which the repair and serve workloads draw their kernels from.
const maxViolations = 5

// transpileSubjects are the Table 3 subjects transpile-subjects runs,
// in order. P4 is left out: alone it takes about 33 s at the quick
// budget, which would leave a traced run (two passes) too close to its
// three-minute limit (see README.md).
var transpileSubjects = []string{"P1", "P2", "P3", "P5", "P6", "P7", "P8", "P9", "P10"}

// serveSubjects are the subjects serve-mixed submits as transpile jobs:
// the ones whose single cold job finishes within a few seconds.
var serveSubjects = []string{"P2", "P3", "P5", "P8", "P10"}

// kernel is one repair-progen work item: a progen kernel seed and
// whether it is repaired against every shipped target.
type kernel struct {
	Seed  int64
	Multi bool
}

// kernelList draws n progen kernel seeds. Every other kernel is a
// multi-target one, so the two halves are the same size.
func kernelList(seed int64, n int) []kernel {
	r := rand.New(rand.NewSource(seed))
	ks := make([]kernel, n)
	for i := range ks {
		ks[i] = kernel{Seed: r.Int63(), Multi: i%2 == 1}
	}
	return ks
}

// Job kinds, as hgserve names them.
const (
	kindCheck     = "check"
	kindRepair    = "repair"
	kindFuzz      = "fuzz"
	kindTranspile = "transpile"
)

// jobKinds lists the serve-mixed kinds in report order.
var jobKinds = []string{kindCheck, kindRepair, kindFuzz, kindTranspile}

// Per-kind fuzz budgets: fuzz jobs use hgconform's per-program budget,
// transpile jobs the hgeval -quick budget.
const (
	fuzzJobExecs      = 150
	transpileJobExecs = 220
)

// job is one serve-mixed submission.
type job struct {
	Kind       string
	Subject    string // transpile jobs: the subject ID
	ProgenSeed int64  // check, repair and fuzz jobs: the kernel seed
	Targets    []string
	// Repeat marks a resubmission of an earlier (kind, source) pair.
	Repeat bool
}

// key is the (kind, source, targets) identity a repeat shares.
func (j job) key() string {
	src := j.Subject
	if src == "" {
		src = fmt.Sprint(j.ProgenSeed)
	}
	return j.Kind + "|" + src + "|" + strings.Join(j.Targets, ",")
}

// repeatShare is the chance a check, repair or fuzz job resubmits an
// earlier job of its kind. Transpile jobs cycle through five subjects,
// so most of them repeat anyway; with this share about one job in four
// overall is a repeat.
const repeatShare = 0.15

// jobList builds n serve-mixed jobs: exactly 40% check, 25% repair,
// 20% fuzz and the rest transpile, in a seeded order. Exact counts keep
// the cost of a run from drifting with the seed. Transpile jobs cycle
// through serveSubjects, and every fourth repair and transpile job
// carries two targets. A transpile job's target pair is fixed by its
// subject, so the set of distinct transpile jobs does not depend on the
// seed.
func jobList(seed int64, n int, targets []string) []job {
	r := rand.New(rand.NewSource(seed))
	counts := map[string]int{
		kindCheck:  n * 40 / 100,
		kindRepair: n * 25 / 100,
		kindFuzz:   n * 20 / 100,
	}
	counts[kindTranspile] = n - counts[kindCheck] - counts[kindRepair] - counts[kindFuzz]
	kinds := make([]string, 0, n)
	for _, k := range jobKinds {
		for i := 0; i < counts[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	pair := func() []string {
		a := r.Intn(len(targets))
		b := (a + 1 + r.Intn(len(targets)-1)) % len(targets)
		return []string{targets[a], targets[b]}
	}
	seen := map[string]bool{}
	earlier := map[string][]job{}
	nth := map[string]int{}
	jobs := make([]job, 0, n)
	for _, k := range kinds {
		i := nth[k]
		nth[k]++
		var j job
		switch {
		case k == kindTranspile:
			s := i % len(serveSubjects)
			j = job{Kind: k, Subject: serveSubjects[s]}
			if i%4 == 3 {
				j.Targets = []string{targets[s%len(targets)], targets[(s+1)%len(targets)]}
			}
		case len(earlier[k]) > 0 && r.Float64() < repeatShare:
			j = earlier[k][r.Intn(len(earlier[k]))]
		default:
			j = job{Kind: k, ProgenSeed: r.Int63()}
			if k == kindRepair && i%4 == 3 {
				j.Targets = pair()
			}
		}
		j.Repeat = seen[j.key()]
		seen[j.key()] = true
		earlier[k] = append(earlier[k], j)
		jobs = append(jobs, j)
	}
	return jobs
}

// targetNames lists every shipped target as a "backend:device" spec.
func targetNames() []string {
	var out []string
	for _, t := range heterogen.Targets() {
		out = append(out, t.String())
	}
	return out
}

// mustSubject looks up a subject the benchmark names; an unknown ID is
// a bug in this file.
func mustSubject(id string) subjects.Subject {
	s, err := subjects.ByID(id)
	if err != nil {
		panic(err)
	}
	return s
}

// genKernel generates one progen kernel with the wilder-sweep cap.
func genKernel(seed int64) (progen.Program, error) {
	return progen.Generate(progen.Options{Seed: seed, MaxViolations: maxViolations})
}
