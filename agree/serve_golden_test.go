package agree_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/agree"
	"repro/internal/lan"
	"repro/internal/timed"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden service reports under testdata/serve")

// goldenServeConfigs are the service configurations whose full report JSON
// is pinned under testdata/serve: n=8 replicas on the timed engine with the
// gigabit LAN profile and leader rotation, as in the perfbench serve
// workload, scaled down. The open-loop rates are fractions of slot
// saturation, the rate at which every pipelined slot commits a full
// 256-command batch.
func goldenServeConfigs() map[string]agree.ServeConfig {
	d, delta := timed.Profile{P: lan.Ethernet1G}.Params()
	sat := 256 / (float64(d) + float64(delta))
	base := func(w agree.WorkloadSpec, commands, batch int) agree.ServeConfig {
		return agree.ServeConfig{
			N: 8, Protocol: agree.ProtocolCRW, RotateLeader: true, Engine: agree.EngineTimed,
			Latency: agree.ProfileLatency("1g"), Workload: w,
			MaxCommands: commands, BatchLimit: batch,
		}
	}
	faulty := base(agree.PoissonArrivals(0.7*sat, 3), 10000, 256)
	faulty.CrashAt = map[int]float64{1: 10000 / (0.7 * sat) / 2}
	faulty.Omissions = &agree.ServeOmissions{Procs: []int{8}, SendProb: 0.3, Seed: 4}
	return map[string]agree.ServeConfig{
		"open-below":     base(agree.PoissonArrivals(0.7*sat, 1), 10000, 0),
		"open-saturated": base(agree.PoissonArrivals(sat, 2), 20000, 256),
		"open-faulty":    faulty,
		"closed-batched": base(agree.ClosedClients(600, 0.0005, true, 5), 10000, 256),
	}
}

// TestServeGoldenReports pins the full ServeReport JSON of four service
// configurations byte for byte: open-loop below and at saturation, open-loop
// with a leader crash and a send-omissive replica, and a closed-loop
// population larger than the batch limit. Batching, carry-over, fault
// injection and the latency percentiles all feed the pinned bytes, so any
// change to the service's bookkeeping that alters a result fails here.
// Regenerate deliberately with go test ./agree -run ServeGolden -update.
func TestServeGoldenReports(t *testing.T) {
	for name, cfg := range goldenServeConfigs() {
		t.Run(name, func(t *testing.T) {
			rep, err := agree.Serve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "serve", name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
