package smr

// service.go is the long-running replicated-log service: consensus as a
// service rather than as one-shot runs. Serve drives *pipelined* consensus
// instances over a simulated service clock — a new slot launches every round
// duration while earlier slots are still completing, which is how a real
// replicated log overlaps instance k+1's first round with instance k's
// second — fed by a workload generator (internal/workload), executing each
// instance on an engine drawn from a per-run harness.Cache (one engine per
// service lifetime, every slot a reuse).
//
// The composition model: each slot's instance is executed atomically on the
// engine and priced by its measured SimTime (timed engines) or its round
// count (round engines); the service clock places instance starts
// roundDur apart and commits at start + instance duration. Crash times are
// quantized to slot launches — a replica whose crash time has passed is dead
// for every instance launched afterwards (it crashes at round 1 having sent
// nothing, indistinguishable within an instance from having died earlier).
//
// Client-observed commit latency is commit(slot) - arrival(command), and
// leader recovery is the service's headline fault metric: the simulated time
// from a leader crash to the earliest commit of any instance launched at or
// after it — one round under leader rotation, two without (the dead
// coordinator wastes the first round of every subsequent instance).

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/harness"
	"repro/internal/laws"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/timed"
	"repro/internal/workload"
)

// OmitOptions injects deterministic omission faults into the command
// stream: each faulty replica drops its entire send plan with SendProb and
// blocks each inbound sender with RecvProb, per (slot, replica, round),
// from a pure SplitMix64 hash — replays are bit-identical per seed and
// independent of sampling order.
type OmitOptions struct {
	// Procs are the omission-faulty replicas (physical ids).
	Procs []sim.ProcID
	// SendProb is the per-round probability a faulty replica's whole send
	// plan is dropped.
	SendProb float64
	// RecvProb is the per-(round, sender) probability a faulty replica
	// misses that sender's messages.
	RecvProb float64
	// Seed selects the fault sample.
	Seed int64
}

// ServeOptions configures a replicated-log service run.
type ServeOptions struct {
	// N is the number of replicas.
	N int
	// Protocol selects the per-slot consensus algorithm (default ProtocolCRW).
	Protocol Protocol
	// Bits is the command bit width (default 64).
	Bits int
	// RotateLeader renumbers replicas per slot so a live replica holds the
	// p1 role (see Config.RotateLeader).
	RotateLeader bool
	// Engine selects the execution engine (default harness.KindTimed).
	Engine harness.Kind
	// Latency prices messages on a timed engine; nil selects the engine
	// default. Requires the timed capability. A timed.Jitter model is
	// re-seeded per slot (hashing slot into the seed) so timing faults vary
	// across the stream instead of repeating one per-round pattern.
	Latency timed.LatencyModel
	// Arrivals is the open-loop command source. Exactly one of Arrivals and
	// Clients must be set.
	Arrivals *workload.Open
	// Clients is the closed-loop client population: each client submits one
	// command, waits for its commit, thinks, and submits the next.
	Clients *workload.Closed
	// MaxCommands stops the service once this many commands committed
	// (the final batch may overshoot). At least one of MaxCommands,
	// Duration and MaxSlots must bound the run.
	MaxCommands int
	// Duration stops the service at the first slot that would launch after
	// this simulated time.
	Duration float64
	// MaxSlots bounds the number of slots.
	MaxSlots int
	// BatchLimit caps the commands committed per slot (0 = unbounded).
	BatchLimit int
	// NoPipeline launches each slot only after the previous one committed,
	// for methodology comparisons; the default overlaps instances one round
	// apart.
	NoPipeline bool
	// CrashAt schedules replica crashes: replica id -> simulated time. The
	// crash takes effect at the first slot launched at or after that time.
	CrashAt map[sim.ProcID]float64
	// Omit injects omission faults mid-stream; nil injects none.
	Omit *OmitOptions
	// Telemetry, when non-nil, records one slot span per committed slot on
	// the service track ([launch, commit], count = batch size), per-slot
	// rounds/batch-size/throughput series, and the commit latency of every
	// command into the recorder's histogram. Spans are on the service clock,
	// not the per-instance engine clock, so a whole stream reads as one
	// timeline. A nil recorder costs nothing.
	Telemetry *telemetry.Recorder
}

// Recovery records one leader crash and the service's recovery from it.
type Recovery struct {
	// Replica is the crashed leader (the replica holding the p1 role when
	// it died).
	Replica sim.ProcID
	// CrashTime is the scheduled crash time.
	CrashTime float64
	// Commit is the earliest commit time among instances launched at or
	// after the crash.
	Commit float64
}

// Duration returns the recovery time: Commit - CrashTime.
func (r Recovery) Duration() float64 { return r.Commit - r.CrashTime }

// LatencyStats summarizes the client-observed commit-latency distribution
// (nearest-rank percentiles over all committed commands).
type LatencyStats struct {
	P50, P99, P999 float64
	Mean, Max      float64
}

// ServeResult is the outcome of a service run.
type ServeResult struct {
	// Commands is the number of committed commands.
	Commands int
	// Slots is the number of committed log slots.
	Slots int
	// TotalRounds sums the rounds of every slot's instance.
	TotalRounds int
	// RoundsHist maps instance round counts to slot counts.
	RoundsHist map[int]int
	// LastCommit is the simulated time of the final commit.
	LastCommit float64
	// Latency is the commit-latency distribution.
	Latency LatencyStats
	// Recoveries lists every leader crash with its recovery time.
	Recoveries []Recovery
	// Crashed maps dead replicas to their scheduled crash time.
	Crashed map[sim.ProcID]float64
	// CrashSlot maps dead replicas to the first slot they were dead for.
	CrashSlot map[sim.ProcID]int
	// Omissive maps omission-faulty replicas to their omissive-round count
	// summed over slots.
	Omissive map[sim.ProcID]int
	// Counters and Ledger aggregate communication over all slots; the
	// cross-slot conservation identity is checked before Serve returns.
	Counters metrics.Counters
	Ledger   metrics.Ledger
	// EnginesBuilt / EngineReuses account the per-run engine cache (one
	// build, Slots-1 reuses).
	EnginesBuilt int
	EngineReuses int
}

// PerHour returns the sustained throughput in commands per simulated hour
// (3600 time units of the run's latency model).
func (r *ServeResult) PerHour() float64 {
	if r.LastCommit <= 0 {
		return 0
	}
	return float64(r.Commands) / r.LastCommit * 3600
}

// RoundsPerCommit returns total rounds over committed slots.
func (r *ServeResult) RoundsPerCommit() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.TotalRounds) / float64(r.Slots)
}

// svcOmitter implements sim.Omitter over physical replica ids for one slot,
// sampling from pure per-(slot, replica, round) hashes.
type svcOmitter struct {
	opt    *OmitOptions
	faulty []bool // indexed by physical id - 1
	slot   int
	perm   []sim.ProcID
	n      int
}

// u01 hashes one (slot, phys, round, stream) identity into [0, 1).
func (o *svcOmitter) u01(phys sim.ProcID, r sim.Round, stream uint64) float64 {
	h := mix(uint64(o.opt.Seed))
	h = mix(h ^ uint64(o.slot)<<1)
	h = mix(h ^ uint64(phys)<<24)
	h = mix(h ^ uint64(r)<<40)
	h = mix(h ^ stream<<56)
	return float64(h>>11) / (1 << 53)
}

// Omits implements sim.Omitter.
func (o *svcOmitter) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	phys := o.perm[p-1]
	if !o.faulty[phys-1] {
		return sim.Omission{}
	}
	var om sim.Omission
	if o.opt.SendProb > 0 && o.u01(phys, r, 1) < o.opt.SendProb {
		om.Data = make([]bool, len(plan.Data))
		om.Ctrl = make([]bool, len(plan.Control))
	}
	if o.opt.RecvProb > 0 {
		var recv []bool
		for j := 1; j <= o.n; j++ {
			if o.u01(phys, r, 2+uint64(j)) < o.opt.RecvProb {
				if recv == nil {
					recv = make([]bool, o.n)
					for k := range recv {
						recv[k] = true
					}
				}
				// The mask is positional over the instance's logical ids:
				// block the role that maps to physical sender j.
				for role, ph := range o.perm {
					if ph == sim.ProcID(j) {
						recv[role] = false
					}
				}
			}
		}
		om.Recv = recv
	}
	return om
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// svcAdversary combines the slot crash adversary with the optional omitter.
type svcAdversary struct {
	slotAdversary
	om *svcOmitter
}

// Omits implements sim.Omitter.
func (a *svcAdversary) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	return a.om.Omits(p, r, plan)
}

// arrival is one pending command: its arrival time and, in a closed loop,
// the submitting client.
type arrival struct {
	t  float64
	id int
}

// arrivalHeap is a min-heap of pending closed-loop commands ordered by time
// (ties by client id, so the batch order is deterministic).
type arrivalHeap []arrival

func (h arrivalHeap) less(i, j int) bool {
	return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].id < h[j].id)
}

func (h *arrivalHeap) push(a arrival) {
	*h = append(*h, a)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *arrivalHeap) pop() arrival {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	hh := *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && hh.less(l, small) {
			small = l
		}
		if r < n && hh.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		hh[i], hh[small] = hh[small], hh[i]
		i = small
	}
	return top
}

// validate rejects unusable service configurations.
func (o *ServeOptions) validate() error {
	if o.N < 1 {
		return errors.New("smr: serve needs at least one replica")
	}
	if (o.Arrivals == nil) == (o.Clients == nil) {
		return errors.New("smr: serve needs exactly one workload source (Arrivals or Clients)")
	}
	if o.MaxCommands <= 0 && o.Duration <= 0 && o.MaxSlots <= 0 {
		return errors.New("smr: serve needs a stop condition (MaxCommands, Duration or MaxSlots)")
	}
	if o.MaxCommands < 0 || o.Duration < 0 || o.MaxSlots < 0 || o.BatchLimit < 0 {
		return errors.New("smr: serve bounds must be non-negative")
	}
	for id, t := range o.CrashAt {
		if id < 1 || int(id) > o.N {
			return fmt.Errorf("smr: crash schedule names nonexistent replica %d (n=%d)", id, o.N)
		}
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("smr: crash time %g of replica %d is not a finite non-negative time", t, id)
		}
	}
	if len(o.CrashAt) >= o.N {
		return fmt.Errorf("smr: crash schedule kills all %d replicas; the service needs a survivor", o.N)
	}
	if om := o.Omit; om != nil {
		if len(om.Procs) == 0 {
			return errors.New("smr: omission injection needs at least one faulty replica")
		}
		seen := map[sim.ProcID]bool{}
		for _, p := range om.Procs {
			if p < 1 || int(p) > o.N {
				return fmt.Errorf("smr: omission-faulty replica %d does not exist (n=%d)", p, o.N)
			}
			if seen[p] {
				return fmt.Errorf("smr: omission-faulty replica %d listed twice", p)
			}
			seen[p] = true
		}
		if om.SendProb < 0 || om.SendProb > 1 || om.RecvProb < 0 || om.RecvProb > 1 {
			return fmt.Errorf("smr: omission probabilities %g/%g out of [0, 1]", om.SendProb, om.RecvProb)
		}
	}
	return nil
}

// slotLatency derives the latency model of one slot: stateless models pass
// through; a Jitter model is re-seeded by hashing the slot index so the
// per-message jitter pattern varies along the stream while staying a pure
// function of (seed, slot, message).
func slotLatency(m timed.LatencyModel, slot int) timed.LatencyModel {
	if j, ok := m.(timed.Jitter); ok {
		j.Seed = int64(mix(uint64(j.Seed) ^ uint64(slot)))
		return j
	}
	return m
}

// Serve runs the replicated-log service to one of its stop conditions and
// returns the aggregated service report. Every slot's instance is audited
// against the PR 6 laws (conservation and ledger consistency by the engine
// adapter, the slot's fault budget here), and the cross-slot aggregate is
// conservation-checked before returning.
func Serve(opts ServeOptions) (*ServeResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Protocol == "" {
		opts.Protocol = ProtocolCRW
	}
	if opts.Bits <= 0 {
		opts.Bits = 64
	}
	kind := opts.Engine
	if kind == "" {
		kind = harness.KindTimed
	}
	caps, ok := harness.Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("smr: unknown engine %q", kind)
	}
	if opts.Latency != nil && !caps.Timed {
		return nil, fmt.Errorf("smr: engine %q lacks the timed capability required by a latency model", kind)
	}

	// Round duration on the service clock: from the latency model for timed
	// engines, one unit per round otherwise.
	cfg := Config{N: opts.N, Protocol: opts.Protocol, Bits: opts.Bits, RotateLeader: opts.RotateLeader}
	roundDur := 1.0
	if caps.Timed {
		lat := opts.Latency
		if lat == nil {
			lat = timed.DefaultModel()
		}
		d, delta := lat.Params()
		roundDur = float64(d)
		if opts.Protocol != ProtocolEarlyStop {
			roundDur += float64(delta)
		}
	}

	// Pending commands: an open-loop source is already a time-ordered FIFO,
	// so slots batch straight from it and a batch over the limit leaves the
	// rest there for the next slot. Closed-loop clients all become ready at
	// time zero and resubmit into a (time, id) min-heap.
	var heap arrivalHeap
	if opts.Clients != nil {
		for c := 0; c < opts.Clients.Clients; c++ {
			heap.push(arrival{t: 0, id: c})
		}
	}
	nextArrival := func() float64 {
		if opts.Arrivals != nil {
			return opts.Arrivals.Peek()
		}
		if len(heap) > 0 {
			return heap[0].t
		}
		return math.Inf(1)
	}
	limit := opts.BatchLimit
	if limit == 0 {
		limit = math.MaxInt
	}

	res := &ServeResult{
		RoundsHist: map[int]int{},
		Crashed:    map[sim.ProcID]float64{},
		CrashSlot:  map[sim.ProcID]int{},
	}
	var lat stats.Sample
	var latMax, latSum float64

	cache := harness.NewCache()
	defer cache.Close()

	dead := map[sim.ProcID]bool{}
	var faulty []bool
	if opts.Omit != nil {
		faulty = make([]bool, opts.N)
		for _, p := range opts.Omit.Procs {
			faulty[p-1] = true
		}
	}

	// Pending leader recoveries: resolved by the minimum commit time over
	// all instances launched at or after the crash (a pipelined successor
	// can commit before a slow multi-round predecessor).
	type pendingRec struct {
		replica sim.ProcID
		t       float64
		best    float64
	}
	var pending []pendingRec

	nextLaunch := 0.0
	committed := 0
	slot := 0
	proposals := make([]sim.Value, opts.N)
	var batch []arrival
	for {
		if opts.MaxCommands > 0 && committed >= opts.MaxCommands {
			break
		}
		if opts.MaxSlots > 0 && slot >= opts.MaxSlots {
			break
		}
		na := nextArrival()
		if math.IsInf(na, 1) {
			break
		}
		start := math.Max(nextLaunch, na)
		if opts.Duration > 0 && start > opts.Duration {
			break
		}
		slot++

		// Crash injection: replicas whose crash time has passed are dead
		// for this and every later instance.
		leader := leaderOf(opts.N, dead, opts.RotateLeader)
		for id, t := range opts.CrashAt {
			if t <= start && !dead[id] {
				dead[id] = true
				res.Crashed[id] = t
				res.CrashSlot[id] = slot
				if id == leader {
					pending = append(pending, pendingRec{replica: id, t: t, best: math.Inf(1)})
					leader = leaderOf(opts.N, dead, opts.RotateLeader)
				}
			}
		}
		if len(dead) >= opts.N {
			return res, fmt.Errorf("smr: all replicas dead at slot %d (t=%g)", slot, start)
		}

		// Batch: every pending command that arrived by the launch time, in
		// arrival order, up to the batch limit.
		batch = batch[:0]
		if opts.Arrivals != nil {
			for len(batch) < limit && opts.Arrivals.Peek() <= start {
				batch = append(batch, arrival{t: opts.Arrivals.Pop()})
			}
		} else {
			for len(batch) < limit && len(heap) > 0 && heap[0].t <= start {
				batch = append(batch, heap.pop())
			}
		}

		perm := permutation(opts.N, dead, opts.RotateLeader)
		for i := range proposals {
			proposals[i] = Command(slot, perm[i])
		}
		procs, model, horizon := buildInstance(cfg, proposals)
		var adv sim.Adversary
		crashAdv := slotAdversary{dead: dead, killNow: nil, perm: perm}
		if opts.Omit != nil {
			adv = &svcAdversary{slotAdversary: crashAdv,
				om: &svcOmitter{opt: opts.Omit, faulty: faulty, slot: slot, perm: perm, n: opts.N}}
		} else {
			adv = &crashAdv
		}
		eng, err := cache.Get(kind)
		if err != nil {
			return res, fmt.Errorf("smr: slot %d: %w", slot, err)
		}
		out, err := eng.Run(harness.Job{Model: model, Horizon: horizon, Procs: procs, Adv: adv,
			Latency: slotLatency(opts.Latency, slot)})
		if err != nil {
			return res, fmt.Errorf("smr: slot %d (t=%g): %w", slot, start, err)
		}
		// The adapter audited the budget-free laws; the slot's fault budget
		// is service knowledge, audited here.
		budget := laws.Budget{Crashes: len(dead)}
		if opts.Omit != nil {
			budget.Omissive = len(opts.Omit.Procs)
		}
		if aerr := laws.AuditBudget(out, budget); aerr != nil {
			return res, fmt.Errorf("smr: slot %d: %w", slot, aerr)
		}
		if _, err := agreedValue(out); err != nil {
			return res, fmt.Errorf("smr: slot %d (t=%g): %w", slot, start, err)
		}

		dur := float64(out.Rounds)
		if caps.Timed {
			dur = out.SimTime
		}
		commit := start + dur
		res.Slots++
		res.TotalRounds += int(out.Rounds)
		res.RoundsHist[int(out.Rounds)]++
		res.LastCommit = commit
		res.Counters.Merge(out.Counters)
		res.Ledger.Merge(out.Ledger)
		for id, c := range out.Omissive {
			if res.Omissive == nil {
				res.Omissive = map[sim.ProcID]int{}
			}
			res.Omissive[perm[id-1]] += c
		}

		for _, a := range batch {
			l := commit - a.t
			lat.Add(l)
			latSum += l
			if l > latMax {
				latMax = l
			}
			opts.Telemetry.Observe(l)
		}
		committed += len(batch)
		if opts.Telemetry.Enabled() {
			opts.Telemetry.Span(telemetry.SpanSlot, telemetry.TrackService,
				int32(slot), int32(len(batch)), start, commit)
			opts.Telemetry.Sample(telemetry.SeriesSlotRounds, commit, float64(out.Rounds))
			opts.Telemetry.Sample(telemetry.SeriesSlotBatch, commit, float64(len(batch)))
			if commit > 0 {
				opts.Telemetry.Sample(telemetry.SeriesThroughput, commit, float64(committed)/commit)
			}
		}
		if opts.Clients != nil {
			for _, a := range batch {
				heap.push(arrival{t: commit + opts.Clients.ThinkGap(), id: a.id})
			}
		}
		for i := range pending {
			if pending[i].t <= start && commit < pending[i].best {
				pending[i].best = commit
			}
		}

		if opts.NoPipeline {
			nextLaunch = commit
		} else {
			nextLaunch = start + roundDur
		}
	}

	if committed == 0 {
		return res, errors.New("smr: service committed no commands (empty workload before the stop condition)")
	}
	res.Commands = committed
	res.Latency = LatencyStats{
		P50:  lat.Percentile(50),
		P99:  lat.Percentile(99),
		P999: lat.Percentile(99.9),
		Mean: latSum / float64(committed),
		Max:  latMax,
	}
	for _, p := range pending {
		if !math.IsInf(p.best, 1) {
			res.Recoveries = append(res.Recoveries, Recovery{Replica: p.replica, CrashTime: p.t, Commit: p.best})
		}
	}
	sort.Slice(res.Recoveries, func(i, j int) bool { return res.Recoveries[i].CrashTime < res.Recoveries[j].CrashTime })
	stats := cache.Stats()
	res.EnginesBuilt, res.EngineReuses = stats.Built, stats.ReuseHits

	// Cross-slot conservation: the aggregated ledger must still account for
	// every transmitted message of the whole stream.
	if got, want := res.Ledger.SinkData(), res.Counters.DataMsgs; got != want {
		return res, &laws.Violation{Law: laws.LawConservationData,
			Detail: fmt.Sprintf("service aggregate: %d data messages transmitted, sinks account for %d", want, got)}
	}
	if got, want := res.Ledger.SinkCtrl(), res.Counters.CtrlMsgs; got != want {
		return res, &laws.Violation{Law: laws.LawConservationCtrl,
			Detail: fmt.Sprintf("service aggregate: %d control messages transmitted, sinks account for %d", want, got)}
	}
	return res, nil
}

// leaderOf returns the replica holding the p1 role for the given dead set.
func leaderOf(n int, dead map[sim.ProcID]bool, rotate bool) sim.ProcID {
	return permutation(n, dead, rotate)[0]
}
