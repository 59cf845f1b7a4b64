package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/agree"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// The campaign workload: agree.Sweep over batches of small seeded configs.
// Per-run fixed costs (normalization, protocol construction, engine cache,
// law audit, consensus check, report maps, pool dispatch) dominate, so
// agree, harness, laws and check optimisations show here. Every crossEvery-th
// batch is cross-checked, so a fixed quarter of the configs also runs on the
// lockstep engine. Every batch holds each of the mix's classes equally often
// and spreads n evenly over its range, so batches cost alike and a call's
// time varies with the code, not with the luck of the draw.
const (
	campaignBatches   = 48
	campaignBatchSize = 2 * mixClasses
	crossEvery        = 4
	mixClasses        = 4 * 5 * 5 // protocol x engine x fault classes of smallSpec
)

type campaign struct {
	specs   [][]runSpec
	configs [][]agree.Config
	nworker int
}

func newCampaign(seed int64) *campaign {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xca4a))
	c := &campaign{nworker: runtime.NumCPU()}
	for range campaignBatches {
		specs := make([]runSpec, campaignBatchSize)
		configs := make([]agree.Config, campaignBatchSize)
		sizes := rng.Perm(campaignBatchSize)
		for k := range specs {
			specs[k] = smallSpec(rng, k%mixClasses, 4+sizes[k]*29/campaignBatchSize)
			cfg, err := specs[k].config()
			if err != nil {
				panic(fmt.Sprintf("generated an invalid config: %v", err)) // a generator bug
			}
			configs[k] = cfg
		}
		c.specs = append(c.specs, specs)
		c.configs = append(c.configs, configs)
	}
	return c
}

// smallSpec draws one config of the given class of the campaign mix with n
// processes. The class picks the protocol (CRW twice as often as EarlyStop
// and FloodSet), the engine (deterministic 3:2 over timed, whose latency is
// the default, the 1g profile or within-bound jitter) and the fault kind (no
// faults, coordinator crashes, coordinator crashes with a COMMIT prefix
// escaping, random crashes, or a replayed fuzz script, a tenth of which
// inject a receive omission).
func smallSpec(rng *rand.Rand, class, n int) runSpec {
	s := runSpec{N: n, T: n - 1, Protocol: agree.ProtocolCRW, Engine: agree.EngineDeterministic, Seed: rng.Int64()}
	fmax := min(n/3, 4)
	switch class % 4 {
	case 2:
		s.Protocol = agree.ProtocolEarlyStop
	case 3:
		s.Protocol = agree.ProtocolFloodSet
	}
	if s.Protocol != agree.ProtocolCRW {
		s.T = 1 + rng.IntN(min(n-1, 6))
		fmax = s.T
	}
	if class/4%5 < 2 {
		s.Engine = agree.EngineTimed
		s.Latency = []string{latDefault, latProfile, latJitter}[rng.IntN(3)]
	}
	switch class / 20 {
	case 0:
		s.Fault = faultNone
	case 1:
		s.Fault, s.F = faultCoord, 1+rng.IntN(fmax)
	case 2:
		s.Fault, s.F, s.Prefix = faultCoordCommit, 1+rng.IntN(fmax), rng.IntN(n)
	case 3:
		s.Fault, s.Prob, s.Max = faultRandom, 0.05+0.15*rng.Float64(), fmax
	default:
		s.Fault = faultReplay
		s.Script, s.Omissive = replayScript(rng, n, fmax)
	}
	s.Proposals = make([]int64, n)
	for i := range s.Proposals {
		s.Proposals[i] = rng.Int64N(1000)
	}
	return s
}

// replayScript draws a fuzz script: silent crashes of up to fmax distinct
// processes in rounds 1-3, or, one time in ten, one receive omission.
func replayScript(rng *rand.Rand, n, fmax int) (string, bool) {
	procs := rng.Perm(n)
	if rng.IntN(10) == 0 {
		mask := make([]byte, n)
		for i := range mask {
			mask[i] = "01"[rng.IntN(2)]
		}
		mask[procs[1]] = '0' // an omission must drop something
		return fmt.Sprintf("p%d@r1:ro:%s", procs[0]+1, mask), true
	}
	events := make([]string, 1+rng.IntN(fmax))
	for i := range events {
		events[i] = fmt.Sprintf("p%d@r%d:/0", procs[i]+1, 1+rng.IntN(3))
	}
	return strings.Join(events, ";"), false
}

func (c *campaign) size() int               { return len(c.specs) }
func (c *campaign) inputs() any             { return c.specs }
func (c *campaign) warmups() int            { return 1 }
func (c *campaign) tailPct() float64        { return 90 }
func (c *campaign) workers() int            { return c.nworker }
func (c *campaign) crossChecked(i int) bool { return i%crossEvery == crossEvery-1 }

func (c *campaign) call(i int) any {
	return agree.Sweep(c.configs[i], agree.SweepOptions{Workers: c.nworker, CrossCheck: c.crossChecked(i)})
}

func (c *campaign) check(i int, out any) (items, attempted, failed int) {
	sr := out.(*agree.SweepReport)
	others := len(agree.Engines()) - 1
	for k, s := range c.specs[i] {
		item := sr.Items[k]
		err := item.Err
		if err == nil {
			err = s.checkReport(item.Report)
		}
		if err == nil && c.crossChecked(i) && s.orderInsensitive() && len(item.CrossChecked) != others {
			err = fmt.Errorf("cross-checked on %d engines, want %d", len(item.CrossChecked), others)
		}
		if err != nil {
			failed++
		}
	}
	return len(sr.Items), len(sr.Items), failed
}

// traced re-drives batch i: the same worker pool (harness.ForEachProf, the
// machinery behind agree.Sweep) with the same phase profile agree.Sweep
// charges, each config assembled from the layers' constructors.
func (c *campaign) traced(i int, l *ledger) any {
	specs := c.specs[i]
	cross := c.crossChecked(i)
	prof := telemetry.NewProfile()
	sr := &agree.SweepReport{Items: make([]agree.SweepItem, len(specs))}
	stats := harness.ForEachProf(len(specs), c.nworker, prof, func(cache *harness.Cache, k int) {
		item := &sr.Items[k]
		item.Config = c.configs[i][k]
		item.Report, item.Err = runTraced(specs[k], harness.Kind(specs[k].Engine), cache, l, prof)
		if item.Err != nil || !cross {
			return
		}
		t0 := time.Now()
		item.CrossChecked, item.Err = crossCheckTraced(specs[k], item.Report, cache, l)
		prof.Add(telemetry.PhaseCrossCheck, time.Since(t0))
	})
	defer l.since(spPost, time.Now())
	foldProfile(l, prof, stats)
	agg := &sr.Aggregate
	agg.Configs = len(specs)
	agg.EnginesBuilt, agg.EngineReuses = stats.Built, stats.ReuseHits
	agg.RoundHistogram = make(map[int]int)
	for k := range sr.Items {
		item := &sr.Items[k]
		if item.Err != nil {
			agg.Errored++
			continue
		}
		if len(item.CrossChecked) > 0 {
			agg.CrossChecked++
		}
		if item.Report.ConsensusErr != nil {
			agg.Violations++
		}
		agg.RoundHistogram[item.Report.MaxDecideRound()]++
		agg.Counters.Merge(item.Report.Counters)
	}
	return sr
}

// foldProfile moves a pool's phase profile and engine-cache account into the
// ledger.
func foldProfile(l *ledger, prof *telemetry.Profile, stats harness.PoolStats) {
	l.add(spQueueWait, prof.Get(telemetry.PhaseQueueWait))
	l.add(spHarnessRun, prof.Get(telemetry.PhaseRun))
	l.add(spHarnessAudit, prof.Get(telemetry.PhaseAudit))
	l.add(spHarnessCross, prof.Get(telemetry.PhaseCrossCheck))
	l.count(cEnginesBuilt, int64(stats.Built))
	l.count(cEngineReuses, int64(stats.ReuseHits))
}

func (c *campaign) same(i int, public, traced any) error {
	a, b := public.(*agree.SweepReport), traced.(*agree.SweepReport)
	for k := range a.Items {
		x, y := a.Items[k], b.Items[k]
		if (x.Err == nil) != (y.Err == nil) {
			return fmt.Errorf("config %d: error %v vs %v", k, x.Err, y.Err)
		}
		if !reflect.DeepEqual(x.CrossChecked, y.CrossChecked) {
			return fmt.Errorf("config %d: cross-checked %v vs %v", k, x.CrossChecked, y.CrossChecked)
		}
		if err := sameJSON(x.Report, y.Report); err != nil {
			return fmt.Errorf("config %d: %w", k, err)
		}
	}
	x, y := a.Aggregate, b.Aggregate
	// Engine construction counts depend on which worker drew which config.
	x.EnginesBuilt, x.EngineReuses, y.EnginesBuilt, y.EngineReuses = 0, 0, 0, 0
	if !reflect.DeepEqual(x, y) {
		return fmt.Errorf("aggregate %+v vs %+v", x, y)
	}
	return nil
}
