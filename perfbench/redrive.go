package main

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/agree"
	"repro/internal/check"
	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/telemetry"
)

// recorders recycles the telemetry recorders traced timed runs attach.
var recorders = sync.Pool{New: func() any { return telemetry.New() }}

// runTraced executes one spec on an engine of the given kind drawn from the
// cache, assembled from the layers' own constructors the way agree.Run
// assembles it, with every layer boundary decorated. prof receives the same
// run/audit phases agree.Sweep charges to SweepOptions.Profile (nil outside a
// sweep). The whole call is the agree layer's span.
func runTraced(s runSpec, kind harness.Kind, cache *harness.Cache, l *ledger, prof *telemetry.Profile) (*agree.Report, error) {
	defer l.since(spConfig, time.Now())
	props := s.proposals()
	t0 := time.Now()
	procs, model, horizon := s.buildProcs(props)
	l.since(spProtoNew, t0)
	adv, budget, err := s.buildFaults()
	if err != nil {
		return nil, err
	}
	eng, err := cache.Get(kind)
	if err != nil {
		return nil, err
	}
	job := harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: adv}
	if eng.Capabilities().Timed {
		job.Latency = s.latencyModel()
	}
	te := &tracedEngine{inner: eng, l: l, as: engineSpan(kind)}
	tr := time.Now()
	res, err := te.Run(job)
	if prof.Enabled() {
		prof.Add(telemetry.PhaseRun, time.Since(tr))
		defer func(t time.Time) { prof.Add(telemetry.PhaseAudit, time.Since(t)) }(time.Now())
	}
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	err = laws.AuditAll(res, budget)
	l.since(spLaws, t1)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	cerr := check.Consensus(props, res)
	l.since(spCheck, t2)

	rep := &agree.Report{
		Rounds:       int(res.Rounds),
		MacroRounds:  int(res.Rounds),
		Decisions:    make(map[int]int64, len(res.Decisions)),
		DecideRound:  make(map[int]int, len(res.DecideRound)),
		Crashed:      make(map[int]int, len(res.Crashed)),
		Counters:     res.Counters,
		Ledger:       res.Ledger,
		SimTime:      res.SimTime,
		ConsensusErr: cerr,
	}
	for id, v := range res.Decisions {
		rep.Decisions[int(id)] = int64(v)
		rep.DecideRound[int(id)] = int(res.DecideRound[id])
	}
	for id, r := range res.Crashed {
		rep.Crashed[int(id)] = int(r)
	}
	for id, c := range res.Omissive {
		if rep.Omissive == nil {
			rep.Omissive = make(map[int]int, len(res.Omissive))
		}
		rep.Omissive[int(id)] = c
	}
	return rep, nil
}

// crossCheckTraced re-runs an eligible spec on every other registered engine
// and compares the semantic outcome, as agree.SweepOptions.CrossCheck does.
func crossCheckTraced(s runSpec, primary *agree.Report, cache *harness.Cache, l *ledger) ([]agree.EngineKind, error) {
	if !s.orderInsensitive() {
		return nil, nil
	}
	var checked []agree.EngineKind
	for _, kind := range harness.Kinds() {
		if kind == harness.Kind(s.Engine) {
			continue
		}
		ref := s
		if caps, _ := harness.Lookup(kind); !caps.Timed {
			ref.Latency = latDefault
		}
		rep, err := runTraced(ref, kind, cache, l, nil)
		if err != nil {
			return checked, fmt.Errorf("crosscheck on engine %q: %w", kind, err)
		}
		if !sameOutcome(primary, rep) {
			return checked, fmt.Errorf("crosscheck divergence between engines %q and %q", s.Engine, kind)
		}
		checked = append(checked, agree.EngineKind(kind))
	}
	return checked, nil
}

// sameOutcome compares the semantic fields agree's cross-check compares;
// SimTime prices an execution and is excluded.
func sameOutcome(a, b *agree.Report) bool {
	return a.Rounds == b.Rounds && a.MacroRounds == b.MacroRounds &&
		reflect.DeepEqual(a.Decisions, b.Decisions) && reflect.DeepEqual(a.DecideRound, b.DecideRound) &&
		reflect.DeepEqual(a.Crashed, b.Crashed) && reflect.DeepEqual(a.Omissive, b.Omissive) &&
		a.Counters == b.Counters && a.Ledger == b.Ledger &&
		(a.ConsensusErr == nil) == (b.ConsensusErr == nil)
}

// sameJSON compares the JSON forms of two reports byte for byte.
func sameJSON(a, b *agree.Report) error {
	if a == nil || b == nil {
		if a != b {
			return errors.New("report present on one side only")
		}
		return nil
	}
	ja, err := a.MarshalJSON()
	if err != nil {
		return err
	}
	jb, err := b.MarshalJSON()
	if err != nil {
		return err
	}
	if string(ja) != string(jb) {
		return fmt.Errorf("report JSON differs:\n%s\n%s", ja, jb)
	}
	return nil
}
