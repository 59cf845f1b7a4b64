package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/agree"
	"repro/internal/harness"
	"repro/internal/lan"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/stats"
	"repro/internal/timed"
	"repro/internal/workload"
)

// The serve workload: agree.Serve, n=8 replicas on the timed engine with the
// gigabit LAN profile and leader rotation, fed by open-loop Poisson arrivals
// in simulated time. Per-command service work (arrival heap, batching,
// latency samples, percentile sorts, cross-slot conservation) dominates;
// per-slot engine work is small at n=8.
const (
	serveN        = 8
	serveBatch    = 256   // BatchLimit: commands per slot at saturation
	serveCommands = 50000 // MaxCommands of a call below saturation
	omissiveRep   = 8     // send-omissive replica; it never takes the leader role
)

// serveInput is one Serve call of the cycle.
type serveInput struct {
	Name     string
	Commands int     // MaxCommands
	Rate     float64 // arrivals per simulated time unit
	Seed     int64   // arrival seed
	CrashAt  float64 // leader crash time; 0 for none
	OmitSeed int64   // omission seed of the send-omissive replica; 0 for none
}

type serveW struct {
	in      []serveInput
	configs []agree.ServeConfig
}

// roundDur is the service's round duration, D+δ of the 1g profile: the
// service launches one pipelined slot per round.
func roundDur() float64 {
	d, delta := timed.Profile{P: lan.Ethernet1G}.Params()
	return float64(d) + float64(delta)
}

// saturation is the arrival rate at which every pipelined slot commits a
// full batch.
func saturation() float64 { return serveBatch / roundDur() }

func newServe(seed int64) *serveW {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	sat := saturation()
	// Mid-stream: half of the below-saturation variant's expected length.
	mid := serveCommands / (0.7 * sat) / 2
	// The saturated call commits twice the commands, so it is the heaviest
	// of the cycle and call_tail_ms falls inside its population.
	return serveFrom([]serveInput{
		{Name: "below", Commands: serveCommands, Rate: 0.7 * sat, Seed: rng.Int64()},
		{Name: "saturated", Commands: 2 * serveCommands, Rate: sat, Seed: rng.Int64()},
		{Name: "faulty", Commands: serveCommands, Rate: 0.7 * sat, Seed: rng.Int64(), CrashAt: mid, OmitSeed: rng.Int64()},
	})
}

// serveFrom builds the public configurations of a cycle of service inputs.
func serveFrom(in []serveInput) *serveW {
	w := &serveW{in: in}
	for _, in := range w.in {
		cfg := agree.ServeConfig{
			N: serveN, Protocol: agree.ProtocolCRW, RotateLeader: true, Engine: agree.EngineTimed,
			Latency: agree.ProfileLatency("1g"), Workload: agree.PoissonArrivals(in.Rate, in.Seed),
			MaxCommands: in.Commands, BatchLimit: serveBatch,
		}
		if in.CrashAt > 0 {
			cfg.CrashAt = map[int]float64{1: in.CrashAt}
			cfg.Omissions = &agree.ServeOmissions{Procs: []int{omissiveRep}, SendProb: 0.3, Seed: in.OmitSeed}
		}
		w.configs = append(w.configs, cfg)
	}
	return w
}

func (w *serveW) size() int    { return len(w.in) }
func (w *serveW) inputs() any  { return w.in }
func (w *serveW) warmups() int { return 1 }

// tailPct: the saturated call, the heaviest, is a third of the cycle, so p90
// lies inside its population; p95 would sit in that call's own slowest
// tenth, which moves with every collection that lands in one.
func (w *serveW) tailPct() float64 { return 90 }
func (w *serveW) workers() int     { return 1 }

type serveOutput struct {
	rep *agree.ServeReport
	err error
}

func (w *serveW) call(i int) any {
	rep, err := agree.Serve(w.configs[i])
	return serveOutput{rep, err}
}

func (w *serveW) check(i int, out any) (items, attempted, failed int) {
	o := out.(serveOutput)
	if err := w.checkReport(i, o); err != nil {
		return 0, w.in[i].Commands, w.in[i].Commands
	}
	return o.rep.Commands, o.rep.Commands, 0
}

// checkReport validates one service run: every command committed, a positive
// commit latency, and on the faulty variant a recovered leader crash and an
// omissive replica that kept the service safe.
func (w *serveW) checkReport(i int, o serveOutput) error {
	if o.err != nil {
		return o.err
	}
	r := o.rep
	if r.Commands < w.in[i].Commands || !(r.LatencyP50 > 0) {
		return fmt.Errorf("%d commands, p50 %g", r.Commands, r.LatencyP50)
	}
	if w.in[i].CrashAt > 0 && (len(r.Recoveries) == 0 || r.Omissive[omissiveRep] == 0) {
		return fmt.Errorf("faulty variant: %d recoveries, %d omissive rounds", len(r.Recoveries), r.Omissive[omissiveRep])
	}
	return nil
}

// tracedTimed is the harness kind under which the traced timed engine is
// registered: smr.Serve draws its engines from the registry by kind, so the
// decorator has to be a registered engine to sit under the service.
const tracedTimed harness.Kind = "perfbench-traced-timed"

var (
	registerOnce sync.Once
	serveLedger  atomic.Pointer[ledger] // the ledger engines built for a traced Serve call report to
)

type servedEngine struct{ *tracedEngine }

func (servedEngine) Kind() harness.Kind { return tracedTimed }

// Run also records each slot's simulated duration, from which the service
// replay rebuilds the commit-latency sample.
func (e servedEngine) Run(job harness.Job) (*sim.Result, error) {
	res, err := e.tracedEngine.Run(job)
	if res != nil {
		e.l.sim.slotDur = append(e.l.sim.slotDur, res.SimTime)
	}
	return res, err
}

func registerTracedTimed() {
	registerOnce.Do(func() {
		harness.Register(func() harness.Engine {
			inner, err := harness.New(harness.KindTimed)
			if err != nil {
				panic(err) // the timed engine registers itself at init
			}
			return servedEngine{&tracedEngine{inner: inner, l: serveLedger.Load(), as: spEngineTimed}}
		})
	})
}

// traced re-drives call i: smr.Serve with the options agree.Serve derives,
// on the traced engine. The percentile sorts and the arrival draws happen
// inside the service loop where no decorator reaches, so they are priced by
// replaying them on the run's own data, and carved out of the service's own
// time when the ledger is read.
func (w *serveW) traced(i int, l *ledger) any {
	in := w.in[i]
	l.sim.slotDur = l.sim.slotDur[:0]
	serveLedger.Store(l)
	registerTracedTimed()
	open, err := workload.NewOpen(workload.Poisson{Rate: in.Rate}, in.Seed)
	if err != nil {
		return serveOutput{nil, err}
	}
	opts := smr.ServeOptions{
		N: serveN, Protocol: smr.ProtocolCRW, RotateLeader: true, Engine: tracedTimed,
		Latency: timed.Profile{P: lan.Ethernet1G}, Arrivals: open,
		MaxCommands: in.Commands, BatchLimit: serveBatch,
	}
	if in.CrashAt > 0 {
		opts.CrashAt = map[sim.ProcID]float64{1: in.CrashAt}
		opts.Omit = &smr.OmitOptions{Procs: []sim.ProcID{omissiveRep}, SendProb: 0.3, Seed: in.OmitSeed}
	}
	t0 := time.Now()
	res, err := smr.Serve(opts)
	l.since(spServe, t0)
	if err != nil {
		return serveOutput{nil, err}
	}
	t1 := time.Now()
	rep := serveReport(res)
	l.since(spPost, t1)

	if err := replayService(l, in, res.Latency); err != nil {
		return serveOutput{nil, err}
	}
	l.sim.slots += float64(res.Slots)
	l.sim.rounds += float64(res.TotalRounds)
	l.count(cEnginesBuilt, int64(res.EnginesBuilt))
	l.count(cEngineReuses, int64(res.EngineReuses))
	switch {
	case in.CrashAt > 0 && len(rep.Recoveries) > 0: // a run without one fails its check
		l.sim.recovery = rep.Recoveries[0].Time()
	case in.Name == "saturated":
		l.sim.p50, l.sim.p99 = rep.LatencyP50, rep.LatencyP99
	}
	return serveOutput{rep, nil}
}

// replayService prices the per-command work inside smr.Serve: the arrival
// draws (workload.Open.Pop) and the three percentile sorts of the
// commit-latency sample. It rebuilds that sample as the service built it,
// in its order: the same arrivals, batched into slots launched a round apart
// (at most serveBatch commands each), each committed after its slot's
// recorded engine run. The replayed percentiles must equal the service's.
func replayService(l *ledger, in serveInput, want smr.LatencyStats) error {
	defer l.since(spReplay, time.Now())
	newOpen := func() *workload.Open {
		open, err := workload.NewOpen(workload.Poisson{Rate: in.Rate}, in.Seed)
		if err != nil {
			panic(err) // the public call accepted the same arrival process
		}
		return open
	}
	open := newOpen()
	var (
		s          stats.Sample
		queue      []float64
		pops       int
		nextLaunch float64
	)
	round := roundDur()
	for _, dur := range l.sim.slotDur {
		next := open.Peek()
		if len(queue) > 0 {
			next = queue[0]
		}
		start := math.Max(nextLaunch, next)
		for open.Peek() <= start {
			queue = append(queue, open.Pop())
			pops++
		}
		batch := queue[:min(len(queue), serveBatch)]
		commit := start + dur
		for _, a := range batch {
			s.Add(commit - a)
		}
		queue = queue[len(batch):]
		nextLaunch = start + round
	}

	open = newOpen()
	t0 := time.Now()
	for range pops {
		open.Pop()
	}
	l.since(spArrivals, t0)
	t1 := time.Now()
	p50, p99, p999 := s.Percentile(50), s.Percentile(99), s.Percentile(99.9)
	l.since(spPercentile, t1)
	if p50 != want.P50 || p99 != want.P99 || p999 != want.P999 {
		return fmt.Errorf("replayed latency percentiles %g/%g/%g, service %g/%g/%g",
			p50, p99, p999, want.P50, want.P99, want.P999)
	}
	return nil
}

// serveReport assembles the public report from the service result exactly as
// agree.Serve does.
func serveReport(res *smr.ServeResult) *agree.ServeReport {
	rep := &agree.ServeReport{
		Commands: res.Commands, Slots: res.Slots, TotalRounds: res.TotalRounds,
		RoundsHist: res.RoundsHist, LastCommit: res.LastCommit, CommandsPerHour: res.PerHour(),
		LatencyP50: res.Latency.P50, LatencyP99: res.Latency.P99, LatencyP999: res.Latency.P999,
		LatencyMean: res.Latency.Mean, LatencyMax: res.Latency.Max,
		Counters: res.Counters, Ledger: res.Ledger,
		EnginesBuilt: res.EnginesBuilt, EngineReuses: res.EngineReuses,
	}
	for _, r := range res.Recoveries {
		rep.Recoveries = append(rep.Recoveries, agree.LeaderRecovery{
			Replica: int(r.Replica), CrashTime: r.CrashTime, Commit: r.Commit})
	}
	if len(res.Crashed) > 0 {
		rep.Crashed = make(map[int]float64, len(res.Crashed))
		for id, t := range res.Crashed {
			rep.Crashed[int(id)] = t
		}
	}
	if len(res.Omissive) > 0 {
		rep.Omissive = make(map[int]int, len(res.Omissive))
		for id, c := range res.Omissive {
			rep.Omissive[int(id)] = c
		}
	}
	return rep
}

func (w *serveW) same(i int, public, traced any) error {
	a, b := public.(serveOutput), traced.(serveOutput)
	if a.err != nil || b.err != nil {
		if (a.err == nil) != (b.err == nil) {
			return fmt.Errorf("error %v vs %v", a.err, b.err)
		}
		return nil
	}
	ja, err := json.Marshal(a.rep)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b.rep)
	if err != nil {
		return err
	}
	if string(ja) != string(jb) {
		return fmt.Errorf("service report JSON differs:\n%s\n%s", ja, jb)
	}
	return nil
}
