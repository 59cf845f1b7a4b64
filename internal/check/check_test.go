package check_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/sim"
)

// TestValidatorsNameLowestOffender builds results with several violators and
// checks that the validity and round-bound errors name the lowest offending
// process, byte-identically on every call: the validators range over maps,
// and a finding must not be worded by map iteration order.
func TestValidatorsNameLowestOffender(t *testing.T) {
	props := []sim.Value{10, 11, 12, 13, 14, 15, 16, 17}
	res := &sim.Result{
		Rounds:      6,
		Decisions:   map[sim.ProcID]sim.Value{},
		DecideRound: map[sim.ProcID]sim.Round{},
		Crashed:     map[sim.ProcID]sim.Round{},
	}
	for id := sim.ProcID(1); id <= 8; id++ {
		res.Decisions[id] = 10
		res.DecideRound[id] = 1
	}
	for _, id := range []sim.ProcID{7, 3, 5, 8} {
		res.Decisions[id] = 99 // not a proposal
		res.DecideRound[id] = sim.Round(id)
	}
	cases := []struct {
		name    string
		class   error
		want    string
		collect func() error
	}{
		{"validity", check.ErrValidity, ": p3 decided 99,", func() error { return check.Consensus(props, res) }},
		{"round bound", check.ErrRoundBound, ": p3 decided at round 3 > bound 1 (f=0)",
			func() error { return check.RoundBound(res, check.BoundFPlus1) }},
	}
	for _, c := range cases {
		first := c.collect()
		if !errors.Is(first, c.class) || !strings.Contains(first.Error(), c.want) {
			t.Fatalf("%s: error %v, want %v naming %q", c.name, first, c.class, c.want)
		}
		for range 100 {
			if err := c.collect(); err.Error() != first.Error() {
				t.Fatalf("%s: error changed between calls:\n%v\n%v", c.name, first, err)
			}
		}
	}
}
