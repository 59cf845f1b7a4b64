package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/agree"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The fuzz workload: agree.Fuzz on the worker pool, in two parts that use
// the fuzz layer differently. The faithful CRW crash campaign with the law
// oracle is walk-heavy and must find nothing; the CommitAsData ablation
// campaign with shrinking is replay-heavy and must find violations. The
// cycle runs two faithful campaigns per ablation campaign so that the median
// call falls inside one part's population, and nine campaigns in all so that
// the figures of a run do not hang on one campaign's luck.
const (
	faithfulN, faithfulT, faithfulSeeds = 16, 5, 300
	ablationN, ablationSeeds            = 6, 100
)

type fuzzW struct {
	configs []agree.FuzzConfig
}

func newFuzz(seed int64) *fuzzW {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xf022))
	base := func() int64 { return 1 + rng.Int64N(1<<40) }
	w := &fuzzW{}
	faithful := func() agree.FuzzConfig {
		return agree.FuzzConfig{N: faithfulN, T: faithfulT, Protocol: agree.ProtocolCRW,
			Engine: agree.EngineDeterministic, Seeds: faithfulSeeds, Seed: base(), CrashProb: 0.25,
			Laws: true, Workers: runtime.NumCPU()}
	}
	for range 3 {
		w.configs = append(w.configs, faithful(), faithful(), agree.FuzzConfig{
			N: ablationN, T: ablationN - 1, Protocol: agree.ProtocolCRW, Engine: agree.EngineDeterministic,
			Seeds: ablationSeeds, Seed: base(), CrashProb: 0.25, CommitAsData: true, Shrink: true,
			Workers: runtime.NumCPU()})
	}
	return w
}

func (w *fuzzW) size() int    { return len(w.configs) }
func (w *fuzzW) inputs() any  { return w.configs }
func (w *fuzzW) warmups() int { return 3 }

// tailPct: the faithful campaigns, the heavier part, are two thirds of the
// cycle, so p95 would sit in their own slowest tenth, which moves with every
// collection that lands in one; p90 is their 85th percentile.
func (w *fuzzW) tailPct() float64 { return 90 }
func (w *fuzzW) workers() int     { return runtime.NumCPU() }

type fuzzOutput struct {
	rep *agree.FuzzReport
	err error
}

func (w *fuzzW) call(i int) any {
	rep, err := agree.Fuzz(w.configs[i])
	return fuzzOutput{rep, err}
}

// check: a faithful campaign finds nothing; an ablation campaign finds
// violations, and every shrunk script replays to a violation through
// agree.FuzzReplayScript. An operation is one seed.
func (w *fuzzW) check(i int, out any) (items, attempted, failed int) {
	cfg := w.configs[i]
	o := out.(fuzzOutput)
	if o.err != nil {
		return 0, cfg.Seeds, cfg.Seeds
	}
	rep := o.rep
	if !cfg.CommitAsData {
		return rep.Executions, cfg.Seeds, len(rep.Findings)
	}
	if len(rep.Findings) == 0 {
		failed++ // the ablation's known counterexample went unfound
	}
	for _, f := range rep.Findings {
		rr, err := agree.FuzzReplayScript(cfg, f.Shrunk, false)
		if f.Shrunk == "" || err != nil || rr.Err == nil {
			failed++
		}
	}
	return rep.Executions, cfg.Seeds, failed
}

// traced re-drives campaign i as agree.Fuzz does: the same pool, target
// factory, oracle and per-seed runner (fuzz.RunSeed), with the engine, the
// factory and the oracle decorated.
func (w *fuzzW) traced(i int, l *ledger) any {
	cfg := w.configs[i]
	factory := tracedFactory(func() fuzz.Target {
		props := make([]sim.Value, cfg.N)
		for k := range props {
			props[k] = sim.Value(100 + k)
		}
		model := sim.ModelExtended
		if cfg.CommitAsData {
			model = sim.ModelClassic
		}
		return fuzz.Target{Model: model, Horizon: sim.Round(cfg.N + 2),
			Procs: core.NewSystem(props, core.Options{CommitAsData: cfg.CommitAsData}), Proposals: props}
	}, l)
	oracle := fuzz.ConsensusOracle(check.BoundFPlus1)
	if cfg.Laws {
		oracle = fuzz.Oracles(oracle, fuzz.LawOracle(laws.Budget{Crashes: cfg.T}))
	}
	oracle = tracedOracle(oracle, l)
	opts := fuzz.Options{Gen: fuzz.Gen{T: cfg.T, CrashProb: cfg.CrashProb}, Shrink: cfg.Shrink}

	type slot struct {
		out   fuzz.Outcome
		fatal error
	}
	outcomes := make([]slot, cfg.Seeds)
	prof := telemetry.NewProfile()
	stats := harness.ForEachProf(cfg.Seeds, cfg.Workers, prof, func(cache *harness.Cache, k int) {
		s := &outcomes[k]
		defer l.since(spFuzzSeed, time.Now())
		eng, err := cache.Get(harness.KindDeterministic)
		if err != nil {
			s.fatal = err
			return
		}
		s.out, s.fatal = fuzz.RunSeed(&tracedEngine{inner: eng, l: l, as: spEngineDet}, factory, oracle, cfg.Seed+int64(k), opts)
	})
	defer l.since(spPost, time.Now())
	foldProfile(l, prof, stats)

	rep := &agree.FuzzReport{Seeds: cfg.Seeds, RoundHistogram: make(map[int]int)}
	for k := range outcomes {
		s := &outcomes[k]
		if s.fatal != nil {
			return fuzzOutput{nil, s.fatal}
		}
		out := &s.out
		rep.Executions += out.Executions
		rep.MaxRounds = max(rep.MaxRounds, int(out.Rounds))
		rep.MaxDecideRound = max(rep.MaxDecideRound, int(out.MaxDecideRound))
		rep.MaxFaults = max(rep.MaxFaults, out.Faults)
		rep.MaxOmissionFaulty = max(rep.MaxOmissionFaulty, out.Omissive)
		if out.Err == nil {
			rep.RoundHistogram[int(out.MaxDecideRound)]++
			continue
		}
		finding := agree.FuzzFinding{Seed: out.Seed, Err: out.Err, Law: laws.Of(out.Err), Script: out.Script.String()}
		if out.Shrunk != nil {
			finding.Shrunk = out.Shrunk.String()
			finding.ShrunkErr = out.ShrunkErr
			finding.Law = laws.Of(out.ShrunkErr)
			finding.ShrunkCrashes = out.Shrunk.Crashes()
			finding.ShrunkOmissions = out.Shrunk.Omissions()
			l.count(cShrinkRuns, int64(out.Executions-2)) // minus the generating run and its replay check
		}
		rep.Findings = append(rep.Findings, finding)
	}
	l.count(cFuzzSeeds, int64(cfg.Seeds))
	l.count(cFuzzExecs, int64(rep.Executions))
	l.count(cFindings, int64(len(rep.Findings)))
	return fuzzOutput{rep, nil}
}

func (w *fuzzW) same(i int, public, traced any) error {
	a, b := public.(fuzzOutput), traced.(fuzzOutput)
	if (a.err == nil) != (b.err == nil) {
		return fmt.Errorf("error %v vs %v", a.err, b.err)
	}
	if a.err != nil {
		return nil
	}
	ja, err := fuzzJSON(a.rep)
	if err != nil {
		return err
	}
	jb, err := fuzzJSON(b.rep)
	if err != nil {
		return err
	}
	if ja != jb {
		return fmt.Errorf("fuzz report JSON differs:\n%s\n%s", ja, jb)
	}
	return nil
}

// fuzzJSON renders a fuzz report as JSON with each error as the check or law
// it reports (an error value has no JSON form of its own).
func fuzzJSON(rep *agree.FuzzReport) (string, error) {
	type finding struct {
		agree.FuzzFinding
		Err, ShrunkErr, CrossCheckErr string
	}
	wire := struct {
		*agree.FuzzReport
		Findings []finding
	}{FuzzReport: rep}
	for _, f := range rep.Findings {
		wire.Findings = append(wire.Findings, finding{f, errClass(f.Err), errClass(f.ShrunkErr), errClass(f.CrossCheckErr)})
	}
	b, err := json.Marshal(wire)
	return string(b), err
}

// errClass names an error by the check or law it reports. The message itself
// is not compared: check.RoundBound names the first offending process in map
// iteration order, so two runs of one seed can word one violation
// differently.
func errClass(err error) string {
	for _, class := range []error{check.ErrValidity, check.ErrAgreement, check.ErrTermination, check.ErrRoundBound} {
		if errors.Is(err, class) {
			return class.Error()
		}
	}
	if law := laws.Of(err); law != "" {
		return law
	}
	if err != nil {
		return err.Error()
	}
	return ""
}
