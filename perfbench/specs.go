package main

import (
	"errors"
	"fmt"

	"repro/agree"
	"repro/internal/adversary"
	"repro/internal/consensus/earlystop"
	"repro/internal/consensus/floodset"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fuzz"
	"repro/internal/lan"
	"repro/internal/laws"
	"repro/internal/sim"
	"repro/internal/timed"
)

// Fault kinds of a runSpec.
const (
	faultNone        = "none"
	faultCoord       = "coord"       // agree.CoordinatorCrashes
	faultCoordCommit = "coordcommit" // agree.CoordinatorCrashesDelivering: DATA sent, a COMMIT prefix escapes
	faultRandom      = "random"      // agree.RandomFaults
	faultReplay      = "replay"      // agree.ReplayFaults
)

// Latency kinds of a runSpec (timed engine only).
const (
	latDefault = ""
	latProfile = "1g"     // agree.ProfileLatency("1g")
	latJitter  = "jitter" // agree.JitterLatency within the synchrony bound
)

// runSpec is one generated consensus configuration. It is the benchmark's
// own description of an input, from which it builds both the public
// agree.Config and, for the traced run, the same execution assembled from the
// layers' own constructors.
type runSpec struct {
	N, T      int
	Protocol  agree.Protocol
	Engine    agree.EngineKind
	Fault     string
	F         int     // coord, coordcommit: crashed coordinators
	Prefix    int     // coordcommit: escaping COMMIT prefix
	Seed      int64   // random: adversary seed; jitter: latency seed
	Prob      float64 // random: per-round crash probability
	Max       int     // random: crash budget
	Script    string  // replay: fuzz script
	Omissive  bool    // replay: the script holds omission events
	Latency   string
	Proposals []int64
}

// config is the public-API form of the spec.
func (s runSpec) config() (agree.Config, error) {
	cfg := agree.Config{N: s.N, T: s.T, Protocol: s.Protocol, Engine: s.Engine, Proposals: s.Proposals}
	switch s.Fault {
	case faultNone:
		cfg.Faults = agree.NoFaults()
	case faultCoord:
		cfg.Faults = agree.CoordinatorCrashes(s.F)
	case faultCoordCommit:
		cfg.Faults = agree.CoordinatorCrashesDelivering(s.F, s.Prefix)
	case faultRandom:
		cfg.Faults = agree.RandomFaults(s.Seed, s.Prob, s.Max)
	case faultReplay:
		f, err := agree.ReplayFaults(s.Script)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = f
	default:
		return cfg, fmt.Errorf("perfbench: unknown fault kind %q", s.Fault)
	}
	switch s.Latency {
	case latProfile:
		cfg.Latency = agree.ProfileLatency("1g")
	case latJitter:
		cfg.Latency = agree.JitterLatency(s.Seed, jitterD, jitterDelta, jitterFloor, jitterSpread)
	}
	return cfg, nil
}

// Jitter parameters: floor+spread == D keeps every latency within the
// synchrony bound, so jittered configurations stay cross-checkable.
const (
	jitterD, jitterDelta, jitterFloor, jitterSpread = 1.0, 0.1, 0.5, 0.5
)

// orderInsensitive mirrors agree's cross-check eligibility: a stateful
// randomized adversary is consulted in scheduling order by the lockstep
// engine and is skipped.
func (s runSpec) orderInsensitive() bool { return s.Fault != faultRandom }

// roundBound checks the paper's decision-round bound for a crash-only run
// with f actual crashes: CRW within f+1, EarlyStop within min(f+2, t+1),
// FloodSet exactly t+1.
func (s runSpec) roundBound(maxDecide, f int) error {
	switch s.Protocol {
	case agree.ProtocolCRW:
		if maxDecide > f+1 {
			return fmt.Errorf("CRW decided in round %d > f+1 = %d", maxDecide, f+1)
		}
	case agree.ProtocolEarlyStop:
		if b := min(f+2, s.T+1); maxDecide > b {
			return fmt.Errorf("EarlyStop decided in round %d > min(f+2, t+1) = %d", maxDecide, b)
		}
	case agree.ProtocolFloodSet:
		if maxDecide != s.T+1 {
			return fmt.Errorf("FloodSet decided in round %d != t+1 = %d", maxDecide, s.T+1)
		}
	}
	return nil
}

// checkReport validates one report of the spec: uniform consensus within the
// round bound for crash-only runs, laws only (already audited when the run
// returned without error) for omission runs.
func (s runSpec) checkReport(rep *agree.Report) error {
	if rep == nil {
		return errors.New("no report")
	}
	if s.Omissive { // the round bounds are crash-model theorems
		return nil
	}
	if rep.ConsensusErr != nil {
		return rep.ConsensusErr
	}
	return s.roundBound(rep.MaxDecideRound(), rep.Faults())
}

func (s runSpec) proposals() []sim.Value {
	props := make([]sim.Value, s.N)
	for i := range props {
		props[i] = sim.Value(s.Proposals[i])
	}
	return props
}

// buildProcs constructs the protocol's process set, model and horizon.
func (s runSpec) buildProcs(props []sim.Value) ([]sim.Process, sim.Model, sim.Round) {
	switch s.Protocol {
	case agree.ProtocolEarlyStop:
		return earlystop.NewSystem(props, s.T, 0), sim.ModelClassic, sim.Round(s.T + 2)
	case agree.ProtocolFloodSet:
		return floodset.NewSystem(props, s.T, 0), sim.ModelClassic, sim.Round(s.T + 2)
	default:
		return core.NewSystem(props, core.Options{}), sim.ModelExtended, sim.Round(s.N + 2)
	}
}

// buildFaults constructs the adversary and the fault budget the laws audit.
func (s runSpec) buildFaults() (sim.Adversary, laws.Budget, error) {
	switch s.Fault {
	case faultCoord, faultCoordCommit:
		return adversary.CoordinatorKiller{F: s.F, DeliverAllData: s.Fault == faultCoordCommit, CtrlPrefix: s.Prefix},
			laws.Budget{Crashes: s.F}, nil
	case faultRandom:
		return adversary.NewRandom(s.Seed, s.Prob, s.Max), laws.Budget{Crashes: s.Max}, nil
	case faultReplay:
		sc, err := fuzz.Parse(s.Script)
		if err != nil {
			return nil, laws.Budget{}, err
		}
		return sc.Adversary(), laws.Budget{Crashes: sc.Crashes(), Omissive: sc.OmissiveProcs()}, nil
	default:
		return adversary.None{}, laws.Budget{}, nil
	}
}

// latencyModel constructs the spec's latency model; nil selects the engine
// default, as agree does for the zero LatencySpec.
func (s runSpec) latencyModel() timed.LatencyModel {
	switch s.Latency {
	case latProfile:
		return timed.Profile{P: lan.Ethernet1G}
	case latJitter:
		return timed.Jitter{D: des.Time(jitterD), Delta: des.Time(jitterDelta),
			Floor: des.Time(jitterFloor), Spread: des.Time(jitterSpread), Seed: s.Seed}
	}
	return nil
}
