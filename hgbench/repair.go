package main

import (
	"fmt"
	"strings"
	"time"

	heterogen "github.com/hetero/heterogen"
	"github.com/hetero/heterogen/internal/cast"
)

// kernelsPerSecond sizes repair-progen: -seconds 10 draws 1200 kernels,
// 7-9 s of repair on one core of a 2-vCPU Xeon VM.
const kernelsPerSecond = 120

// batchSize is how many kernels repair-progen repairs between two
// readings of the resident-set high-water mark. A few kernels in a
// thousand need 20-60 MB where the rest need under 5 MB, so the
// run-wide peak depends on whether a seed draws one; the median batch
// peak does not.
const batchSize = 100

// setupFuzzExecs is the small test-generation budget set-up spends on
// each kernel.
const setupFuzzExecs = 12

// kernelInput is one repair-progen work item after set-up.
type kernelInput struct {
	Seed     int64
	Multi    bool
	Kernel   string
	Source   string
	Tests    []heterogen.TestCase
	Coverage float64
}

// setupRepair generates the seeded kernel draw and each kernel's tests.
func setupRepair(cfg config) (any, []time.Duration, error) {
	ks := kernelList(cfg.Seed, kernelsPerSecond*cfg.Seconds)
	return partedSetup(len(ks), func(lo, hi int) ([]kernelInput, error) {
		var in []kernelInput
		for _, k := range ks[lo:hi] {
			prog, err := genKernel(k.Seed)
			if err != nil {
				return nil, err
			}
			camp, err := heterogen.GenerateTests(prog.Source, prog.Kernel, heterogen.FuzzOptions{
				Seed: 1, MaxExecs: setupFuzzExecs, TypedMutation: true, MaxStepsPerExec: 2_000_000})
			if err != nil {
				return nil, fmt.Errorf("kernel %d: tests: %w", k.Seed, err)
			}
			in = append(in, kernelInput{Seed: k.Seed, Multi: k.Multi, Kernel: prog.Kernel,
				Source: prog.Source, Tests: camp.Tests, Coverage: camp.Coverage})
		}
		return in, nil
	})
}

// runRepair repairs every kernel with one heterogen.Repair call;
// multi-target kernels are repaired against every shipped target.
func runRepair(_ config, in any, t *tracer) (pass, error) {
	inputs := in.([]kernelInput)
	all := heterogen.Targets()
	p := pass{Items: len(inputs)}
	var rec *recorder
	if t != nil {
		rec = &recorder{}
		p.Layers = map[string]float64{}
	}
	var (
		perKernel  []time.Duration
		candEvents int
		rc         repairCounts
		finals     = make([]string, len(inputs))
		claimed    = make([]bool, len(inputs))
		digests    []string
		peaks      []float64
	)
	root := t.begin("repair-progen", 0, time.Now())
	for lo := 0; lo < len(inputs); lo += batchSize {
		// Between batches, outside the timed section: return freed
		// memory and restart the high-water mark.
		resetPeakRSS()
		c0 := selfUsage().CPU
		b0 := time.Now()
		batch := t.begin("batch", root, b0)
		for i := lo; i < min(lo+batchSize, len(inputs)); i++ {
			k := inputs[i]
			opts := heterogen.Options{Kernel: k.Kernel, ExtraTests: k.Tests, Workers: 1}
			if k.Multi {
				opts.Targets = all
			}
			if rec != nil {
				opts.Obs = rec
			}
			s0 := time.Now()
			res, err := heterogen.Repair(k.Source, opts)
			s1 := time.Now()
			if rec != nil {
				name := "repair.single_target"
				if k.Multi {
					name = "repair.multi_target"
				}
				perKernel = append(perKernel, s1.Sub(s0))
				ks := t.add(name, batch, s0, s1)
				_, cands := phaseSpans(t, ks, rec.take())
				candEvents += cands
			}
			if err != nil {
				p.Failed++
				p.Problems = append(p.Problems, fmt.Sprintf("kernel %d: repair: %v", k.Seed, err))
				continue
			}
			if !res.Compatible || !res.BehaviorOK {
				p.BadOutput++
				p.Notes = append(p.Notes, fmt.Sprintf("progen kernel %d (multi-target=%v): compatible=%v behaviour-preserving=%v edits=%s",
					k.Seed, k.Multi, res.Compatible, res.BehaviorOK, strings.Join(res.Stats.EditLog, ";")))
			}
			rc.add(res)
			finals[i] = cast.Print(res.Unit)
			claimed[i] = res.Compatible
			p.DesignMS = append(p.DesignMS, res.Report.FPGAMeanMS())
			digests = append(digests, fmt.Sprintf("%d|%v|%v|%v|%v|%.9g|%d|%s|%s", k.Seed, k.Multi,
				res.Compatible, res.BehaviorOK, res.Improved, res.Report.FPGAMeanMS(),
				res.Stats.CandidatesTried, strings.Join(res.Stats.EditLog, ";"), finals[i]))
		}
		b1 := time.Now()
		t.end(batch, b1)
		p.Wall += b1.Sub(b0)
		p.CPU += selfUsage().CPU - c0
		peaks = append(peaks, peakRSSMB())
	}
	t.end(root, time.Now())
	p.RSSMB = median(peaks)
	p.Digest = digestOf(digests...)
	for _, k := range inputs {
		p.Coverage = append(p.Coverage, k.Coverage)
	}

	// A design the search calls compatible must pass a fresh checker run
	// against the same target set.
	for i, k := range inputs {
		if !claimed[i] {
			continue
		}
		opts := heterogen.Options{Kernel: k.Kernel}
		if k.Multi {
			opts.Targets = all
		}
		reps, err := heterogen.CheckTargets(finals[i], opts)
		if err != nil {
			p.Problems = append(p.Problems, fmt.Sprintf("kernel %d: re-check: %v", k.Seed, err))
			continue
		}
		for _, r := range reps {
			if !r.Report.OK {
				p.Problems = append(p.Problems, fmt.Sprintf(
					"kernel %d: repair claims compatible but %s reports %d diagnostics",
					k.Seed, r.Target, len(r.Report.Diags)))
			}
		}
	}

	if rec != nil {
		p.checkCandidates(candEvents, rc.tried)
		l := p.Layers
		p.traceLayers(t)
		p.setPercentile("repair.kernel_p50_ms", perKernel, 50)
		p.setPercentile("repair.kernel_p95_ms", perKernel, 95)
		rc.layers(l)
	}
	return p, nil
}
