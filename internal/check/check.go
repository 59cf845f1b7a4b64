// Package check validates consensus executions and exhaustively explores the
// space of crash schedules for small systems.
//
// The validators encode the uniform consensus specification of Section 3.1
// (validity, uniform agreement, termination) plus round-bound predicates for
// the theorems being reproduced (Theorem 1's f+1 bound, the classic
// min(f+2, t+1) bound).
//
// The explorer turns the deterministic engine into a bounded model checker:
// every nondeterministic choice of an execution (crash or not, escaped data
// subset, escaped control prefix) is resolved by a backtracking Chooser, and
// the explorer enumerates all choice sequences in lexicographic order. For
// the system sizes used in experiment E5 (n <= 5, t <= 2) this enumerates
// every execution of the model, which is exactly the quantification the
// paper's proofs (and its lower bound, Theorem 4) range over.
package check

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Violation errors returned by the validators.
var (
	ErrValidity    = errors.New("check: validity violated (decision not a proposal)")
	ErrAgreement   = errors.New("check: uniform agreement violated (two distinct decisions)")
	ErrTermination = errors.New("check: termination violated (surviving process never decided)")
	ErrRoundBound  = errors.New("check: decision round bound violated")
)

// Consensus validates the uniform consensus specification against a finished
// run: every decided value is a proposal; no two processes (correct or
// faulty) decided differently; every process that did not crash decided. A
// validity or termination error names the lowest offending process.
func Consensus(proposals []sim.Value, res *sim.Result) error {
	prop := make(map[sim.Value]bool, len(proposals))
	for _, v := range proposals {
		prop[v] = true
	}
	// Name the lowest offending id, not the first in map order, so one
	// violation reads the same on every run.
	var bad sim.ProcID
	for id, v := range res.Decisions {
		if !prop[v] && (bad == 0 || id < bad) {
			bad = id
		}
	}
	if bad != 0 {
		return fmt.Errorf("%w: p%d decided %d, proposals %v", ErrValidity, bad, int64(res.Decisions[bad]), proposals)
	}
	if d := res.DistinctDecisions(); len(d) > 1 {
		return fmt.Errorf("%w: decisions %v by %v", ErrAgreement, d, res.Decisions)
	}
	for i := 1; i <= len(proposals); i++ {
		id := sim.ProcID(i)
		if _, crashed := res.Crashed[id]; crashed {
			continue
		}
		if _, ok := res.Decisions[id]; !ok {
			return fmt.Errorf("%w: p%d alive after %d rounds", ErrTermination, id, res.Rounds)
		}
	}
	return nil
}

// RoundBound validates that no process decided after bound(f), where f is
// the number of crashes that occurred in the run. Pass core's f+1 bound as
// func(f int) sim.Round { return sim.Round(f + 1) }. The error names the
// lowest offending process.
func RoundBound(res *sim.Result, bound func(f int) sim.Round) error {
	limit := bound(res.Faults())
	var bad sim.ProcID
	for id, r := range res.DecideRound {
		if r > limit && (bad == 0 || id < bad) {
			bad = id
		}
	}
	if bad != 0 {
		return fmt.Errorf("%w: p%d decided at round %d > bound %d (f=%d)",
			ErrRoundBound, bad, res.DecideRound[bad], limit, res.Faults())
	}
	return nil
}

// BoundFPlus1 is Theorem 1's bound for the extended model.
func BoundFPlus1(f int) sim.Round { return sim.Round(f + 1) }

// BoundClassic returns the classic-model early-stopping bound min(f+2, t+1)
// for resilience t.
func BoundClassic(t int) func(f int) sim.Round {
	return func(f int) sim.Round {
		b := f + 2
		if t+1 < b {
			b = t + 1
		}
		return sim.Round(b)
	}
}
