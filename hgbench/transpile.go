package main

import (
	"fmt"
	"strings"
	"time"

	heterogen "github.com/hetero/heterogen"
)

// subjectInput is one transpile-subjects work item with its Table 3
// expectations.
type subjectInput struct {
	ID             string
	Source         string
	Kernel         string
	HostMain       string
	ExpectImproved bool
	ExpectedEdits  []string
}

// fuzzSeed is the fuzz seed transpile-subjects passes to the program:
// the default of the heterogen CLI and hgeval. It is program
// configuration, not a generated input, so the workload seed does not
// set it. TestP8FuzzSeedFinding runs P8 at other fuzz seeds.
const fuzzSeed = 1

// quickFuzz is the hgeval -quick fuzz budget.
func quickFuzz(seed int64) heterogen.FuzzOptions {
	return heterogen.FuzzOptions{Seed: seed, MaxExecs: 220, Plateau: 90,
		TypedMutation: true, MaxStepsPerExec: 2_000_000}
}

// subjectSetupReps is how many times transpile-subjects times its
// set-up. One set-up takes about 2 ms, so a median of three would be
// timer and garbage-collector noise.
const subjectSetupReps = 41

// setupTranspile loads the subjects and checks that each original
// still shows the HLS error classes Table 3 lists for it.
func setupTranspile(config) (any, []time.Duration, error) {
	return repeatSetup(subjectSetupReps, loadSubjects)
}

func loadSubjects() ([]subjectInput, error) {
	var in []subjectInput
	for _, id := range transpileSubjects {
		s := mustSubject(id)
		rep, err := heterogen.Check(s.Source, heterogen.Options{Kernel: s.Kernel})
		if err != nil {
			return nil, fmt.Errorf("%s: check: %w", id, err)
		}
		for _, c := range s.ExpectedClasses {
			if !rep.HasClass(c) {
				return nil, fmt.Errorf("%s: original no longer shows %s", id, c)
			}
		}
		in = append(in, subjectInput{ID: id, Source: s.Source, Kernel: s.Kernel, HostMain: s.HostMain,
			ExpectImproved: s.ExpectImproved, ExpectedEdits: s.ExpectedEdits})
	}
	return in, nil
}

// runTranspile transpiles every subject in order, each with a fresh
// in-memory cache as the heterogen CLI uses by default.
func runTranspile(_ config, in any, t *tracer) (pass, error) {
	inputs := in.([]subjectInput)
	p := pass{Items: len(inputs)}
	var rec *recorder
	if t != nil {
		rec = &recorder{}
		p.Layers = map[string]float64{}
	}
	var (
		execGaps          []time.Duration
		execs, candEvents int
		rc                repairCounts
		hits, lookups     int64
		digests           []string
		peaks             []float64
	)
	root := t.begin("transpile-subjects", 0, time.Now())
	for _, s := range inputs {
		cache, err := heterogen.NewCache(heterogen.CacheOptions{})
		if err != nil {
			return p, err
		}
		opts := heterogen.Options{Kernel: s.Kernel, HostMain: s.HostMain,
			Fuzz: quickFuzz(fuzzSeed), Workers: 1, Cache: cache}
		if rec != nil {
			opts.Obs = rec
		}
		// Between subjects, outside the timed section: return freed
		// memory and restart the high-water mark.
		resetPeakRSS()
		c0 := selfUsage().CPU
		s0 := time.Now()
		res, err := heterogen.Transpile(s.Source, opts)
		s1 := time.Now()
		p.Wall += s1.Sub(s0)
		p.CPU += selfUsage().CPU - c0
		peaks = append(peaks, peakRSSMB())
		if rec != nil {
			sp := t.add("subject."+s.ID, root, s0, s1)
			gaps, cands := phaseSpans(t, sp, rec.take())
			execGaps = append(execGaps, gaps...)
			candEvents += cands
			p.Layers["subject."+s.ID+".wall_s"] = s1.Sub(s0).Seconds()
		}
		if err != nil {
			p.Failed++
			p.Problems = append(p.Problems, fmt.Sprintf("%s: transpile: %v", s.ID, err))
			continue
		}
		if why := subjectCheck(s, res); why != "" {
			p.BadOutput++
			p.Notes = append(p.Notes, fmt.Sprintf("%s (fuzz seed %d): %s", s.ID, fuzzSeed, why))
		}
		execs += res.Campaign.Execs
		rc.add(res.Repair)
		hits += res.CacheStats.Hits()
		lookups += res.CacheStats.Hits() + res.CacheStats.Misses()
		p.DesignMS = append(p.DesignMS, res.FPGAMeanMS)
		p.Coverage = append(p.Coverage, res.Campaign.Coverage)
		digests = append(digests, fmt.Sprintf("%s|%v|%v|%v|%d|%.9g|%.9g|%d|%s|%s", s.ID,
			res.Compatible, res.BehaviorOK, res.Improved, res.DeltaLOC, res.FPGAMeanMS,
			res.Campaign.Coverage, res.Campaign.Execs, strings.Join(res.Repair.Stats.EditLog, ";"), res.Source))
	}
	t.end(root, time.Now())
	p.RSSMB = median(peaks)
	p.Digest = digestOf(digests...)

	if rec != nil {
		p.checkCandidates(candEvents, rc.tried)
		l := p.Layers
		p.traceLayers(t)
		l["fuzz.execs"] = float64(execs)
		l["fuzz.execs_per_s"] = float64(execs) / l["fuzz.busy_s"]
		p.setPercentile("fuzz.exec_p50_ms", execGaps, 50)
		p.setPercentile("fuzz.exec_p99_ms", execGaps, 99)
		rc.layers(l)
		if lookups > 0 {
			l["evalcache.hit_ratio"] = float64(hits) / float64(lookups)
		}
	}
	return p, nil
}

// repairCounts sums the statistics of several repair searches.
type repairCounts struct{ tried, accepted, styleRejected, hlsRuns, iters int }

func (c *repairCounts) add(r heterogen.RepairResult) {
	c.tried += r.Stats.CandidatesTried
	c.accepted += r.Stats.AcceptedCandidates
	c.styleRejected += r.Stats.StyleRejections
	c.hlsRuns += r.Stats.HLSInvocations
	c.iters += r.Stats.Iterations
}

// layers fills the repair-layer counts and ratios; repair.busy_s must
// already be set.
func (c repairCounts) layers(l map[string]float64) {
	l["repair.candidates"] = float64(c.tried)
	l["repair.candidates_per_s"] = float64(c.tried) / l["repair.busy_s"]
	if c.tried > 0 {
		l["repair.accept_ratio"] = float64(c.accepted) / float64(c.tried)
		l["repair.style_reject_ratio"] = float64(c.styleRejected) / float64(c.tried)
	}
	l["repair.hls_invocations"] = float64(c.hlsRuns)
	l["repair.iterations"] = float64(c.iters)
}

// checkCandidates compares the repair_candidate events a traced pass
// saw with the candidates its results report.
func (p *pass) checkCandidates(events, tried int) {
	if events != tried {
		p.Problems = append(p.Problems, fmt.Sprintf(
			"traced %d repair_candidate events but the results count %d candidates", events, tried))
	}
}

// subjectCheck applies Table 3's expectations to one subject's result:
// compatible, behaviour-preserving, improved exactly when the paper
// says so, and every expected repair template in the edit log.
func subjectCheck(s subjectInput, res heterogen.Result) string {
	var bad []string
	if !res.Compatible {
		bad = append(bad, "not compatible")
	}
	if !res.BehaviorOK {
		bad = append(bad, "behaviour not preserved")
	}
	if res.Improved != s.ExpectImproved {
		bad = append(bad, fmt.Sprintf("improved=%v, Table 3 expects %v", res.Improved, s.ExpectImproved))
	}
	log := strings.Join(res.Repair.Stats.EditLog, " ")
	for _, want := range s.ExpectedEdits {
		if !strings.Contains(log, want) {
			bad = append(bad, fmt.Sprintf("edit log lacks template %q", want))
		}
	}
	return strings.Join(bad, "; ")
}
