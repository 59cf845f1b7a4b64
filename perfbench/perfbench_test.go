package main

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

var workloadNames = []string{"campaign", "large-n", "serve", "fuzz"}

// TestTracedMatchesUntraced: re-driving an input through the decorated layers
// yields byte-identical reports to the public call, on every workload. The
// campaign inputs include a cross-checked batch, so the decorators also run
// under the lockstep engine's goroutine-per-process calls (run with -race).
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			l := &ledger{}
			for i := range min(w.size(), 9) {
				pub := w.call(i)
				if _, attempted, failed := w.check(i, pub); failed != 0 {
					t.Fatalf("input %d: %d of %d operations failed their checks", i, failed, attempted)
				}
				if err := w.same(i, pub, w.traced(i, l)); err != nil {
					t.Fatalf("input %d: %v", i, err)
				}
			}
		})
	}
}

// TestInputsDigest: the same seed generates the same inputs, another seed
// different ones.
func TestInputsDigest(t *testing.T) {
	for _, name := range workloadNames {
		digest := func(seed int64) string {
			w, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			d, err := digestOf(w.inputs())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 digests %s and %s", name, a, b)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("%s: seeds 1 and 2 share digest %s", name, a)
		}
	}
}

// TestCampaignGeneratorValid: the campaign generator panics on a config the
// public API rejects; sweep enough seeds to cover its rare branches.
func TestCampaignGeneratorValid(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		newCampaign(seed)
	}
}

type omitting struct{ adversary.None }

func (omitting) Omits(sim.ProcID, sim.Round, sim.SendPlan) sim.Omission { return sim.Omission{} }

// TestWrapAdversaryForwardsOmitter: the decorator presents sim.Omitter
// exactly when the adversary it wraps does.
func TestWrapAdversaryForwardsOmitter(t *testing.T) {
	l := &ledger{}
	if _, ok := wrapAdversary(adversary.None{}, l).(sim.Omitter); ok {
		t.Error("crash-only adversary gained an Omitter")
	}
	if _, ok := wrapAdversary(omitting{}, l).(sim.Omitter); !ok {
		t.Error("omitting adversary lost its Omitter")
	}
	if wrapAdversary(nil, l) != nil {
		t.Error("nil adversary was wrapped")
	}
}

// TestServeWithoutRecovery: a faulty service run whose leader crash never
// happens fails its check, and its traced re-drive still returns the public
// call's report instead of stopping the run.
func TestServeWithoutRecovery(t *testing.T) {
	w := serveFrom([]serveInput{{Name: "faulty", Commands: 5000, Rate: 0.7 * saturation(),
		Seed: 3, CrashAt: 1e9, OmitSeed: 4}})
	pub := w.call(0)
	if _, attempted, failed := w.check(0, pub); failed != attempted {
		t.Fatalf("%d of %d operations failed, want all: the run has no recovery", failed, attempted)
	}
	if err := w.same(0, pub, w.traced(0, &ledger{})); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrationKernel: the calibration kernel allocates nothing, so the
// code under test cannot change its timing through the collector, and a
// calibrator starts with a full window and a positive scale.
func TestCalibrationKernel(t *testing.T) {
	c := newCalibrator()
	if len(c.times) != calWindow || !(c.scale > 0) {
		t.Fatalf("%d samples, scale %v", len(c.times), c.scale)
	}
	if a := testing.AllocsPerRun(3, func() { kernel(c.table) }); a != 0 {
		t.Errorf("kernel allocates %v times per run", a)
	}
}
