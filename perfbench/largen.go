package main

import (
	"fmt"
	"math/rand/v2"

	"repro/agree"
	"repro/internal/harness"
)

// The large-n workload: sequential agree.Run on a few large runs. Per-message
// work (DES heap, fault and delivery rules, plan validation, protocol
// Send/Receive, inbox handling) dominates and per-run overhead is small. The
// cycle holds eleven runs, four of them CRW at n=128, so that the median call
// falls inside the n=128 population, clear of the classic baselines whose
// cost swings with the random fault draw.
type largeN struct {
	specs   []runSpec
	configs []agree.Config
}

func newLargeN(seed int64) *largeN {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x1a9e))
	w := &largeN{}
	add := func(s runSpec) {
		s.Seed = rng.Int64()
		s.Proposals = make([]int64, s.N)
		for i := range s.Proposals {
			s.Proposals[i] = rng.Int64N(1 << 20)
		}
		cfg, err := s.config()
		if err != nil {
			panic(fmt.Sprintf("generated an invalid config: %v", err)) // a generator bug
		}
		w.specs = append(w.specs, s)
		w.configs = append(w.configs, cfg)
	}
	// CRW at the paper's worst case, f = n/8 coordinator crashes (f+1
	// rounds), on the timed engine with within-bound jitter and on the
	// deterministic engine.
	for _, n := range []int{64, 128, 128, 256} {
		add(runSpec{N: n, T: n - 1, Protocol: agree.ProtocolCRW, Engine: agree.EngineTimed,
			Fault: faultCoord, F: n / 8, Latency: latJitter})
		add(runSpec{N: n, T: n - 1, Protocol: agree.ProtocolCRW, Engine: agree.EngineDeterministic,
			Fault: faultCoord, F: n / 8})
	}
	// The all-to-all classic baselines at n=64, t=8. EarlyStop under random
	// faults stays at n <= 64: at n=256 one run costs hundreds of
	// milliseconds. Its random crashes are capped at 4, so it stops early
	// (within min(f+2, t+1) <= 6 rounds, 3 on almost every draw): with a cap
	// of t=8 about one draw in twenty runs all t+1 rounds at three times the
	// cost, and the seeds that draw it would set the cycle's cost.
	add(runSpec{N: 64, T: 8, Protocol: agree.ProtocolEarlyStop, Engine: agree.EngineDeterministic,
		Fault: faultRandom, Prob: 0.05, Max: 4})
	add(runSpec{N: 64, T: 8, Protocol: agree.ProtocolEarlyStop, Engine: agree.EngineTimed,
		Fault: faultCoord, F: 8, Latency: latJitter})
	add(runSpec{N: 64, T: 8, Protocol: agree.ProtocolFloodSet, Engine: agree.EngineDeterministic,
		Fault: faultRandom, Prob: 0.05, Max: 8})
	return w
}

func (w *largeN) size() int        { return len(w.specs) }
func (w *largeN) inputs() any      { return w.specs }
func (w *largeN) warmups() int     { return len(w.specs) }
func (w *largeN) tailPct() float64 { return 95 }
func (w *largeN) workers() int     { return 1 }

type runOutput struct {
	rep *agree.Report
	err error
}

func (w *largeN) call(i int) any {
	rep, err := agree.Run(w.configs[i])
	return runOutput{rep, err}
}

func (w *largeN) check(i int, out any) (items, attempted, failed int) {
	o := out.(runOutput)
	err := o.err
	if err == nil {
		err = w.specs[i].checkReport(o.rep)
	}
	if err != nil {
		return 1, 1, 1
	}
	return 1, 1, 0
}

// traced re-drives run i as agree.Run does: a fresh engine cache per run.
func (w *largeN) traced(i int, l *ledger) any {
	cache := harness.NewCache()
	defer cache.Close()
	rep, err := runTraced(w.specs[i], harness.Kind(w.specs[i].Engine), cache, l, nil)
	st := cache.Stats()
	l.count(cEnginesBuilt, int64(st.Built))
	l.count(cEngineReuses, int64(st.ReuseHits))
	return runOutput{rep, err}
}

func (w *largeN) same(i int, public, traced any) error {
	a, b := public.(runOutput), traced.(runOutput)
	if (a.err == nil) != (b.err == nil) {
		return fmt.Errorf("error %v vs %v", a.err, b.err)
	}
	return sameJSON(a.rep, b.rep)
}
