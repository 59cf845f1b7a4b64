package main

import (
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timed"
)

// span names one timed layer boundary of the ledger.
type span int

const (
	spConfig       span = iota // one configuration through the agree pipeline (Run, Sweep item)
	spProtoNew                 // protocol NewSystem
	spEngineDet                // harness.Engine.Run, deterministic engine
	spEngineTimed              // harness.Engine.Run, timed engine
	spEngineLock               // harness.Engine.Run, lockstep engine
	spSend                     // sim.Process.Send
	spReceive                  // sim.Process.Receive
	spAdversary                // sim.Adversary.Crashes and sim.Omitter.Omits
	spLatency                  // timed.LatencyModel.Latency
	spLaws                     // laws.AuditAll
	spCheck                    // check.Consensus
	spPost                     // batch-level report assembly after the pool drained
	spQueueWait                // telemetry.PhaseQueueWait of a harness pool
	spHarnessRun               // telemetry.PhaseRun
	spHarnessAudit             // telemetry.PhaseAudit
	spHarnessCross             // telemetry.PhaseCrossCheck
	spServe                    // one smr.Serve call
	spPercentile               // stats.Sample.Percentile replay
	spArrivals                 // workload.Open.Pop replay
	spReplay                   // the whole service replay, inputs included; part of no call
	spFuzzSeed                 // fuzz.RunSeed
	spFuzzOracle               // fuzz.Oracle
	numSpans
)

// count names one counter of the ledger.
type count int

const (
	cMsgs count = iota
	cRounds
	cSendCalls
	cInboxMsgs
	cCrashCalls
	cOmitCalls
	cAdvEvents
	cLatCalls
	cDESBatches
	cDESEvents
	cDESRuns
	cEnginesBuilt
	cEngineReuses
	cFuzzSeeds
	cFuzzExecs
	cShrinkRuns
	cFindings
	numCounts
)

// ledger accumulates nanoseconds per span and totals per counter. Every field
// is atomic: pool workers share one ledger, and the lockstep engine calls the
// process and adversary decorators from one goroutine per process.
type ledger struct {
	ns        [numSpans]atomic.Int64
	n         [numCounts]atomic.Int64
	heapMax   atomic.Int64
	poolHitPM atomic.Int64 // DES pool hit rate per mille, summed over timed runs
	// sim holds the service's simulated-time figures and the simulated
	// duration of each slot of the current call; only the sequential serve
	// re-drive writes it.
	sim struct {
		slots, rounds, p50, p99, recovery float64
		slotDur                           []float64
	}
}

func (l *ledger) add(s span, d time.Duration) { l.ns[s].Add(int64(d)) }

func (l *ledger) since(s span, t0 time.Time) { l.ns[s].Add(int64(time.Since(t0))) }

func (l *ledger) count(c count, v int64) { l.n[c].Add(v) }

func (l *ledger) seconds(s span) float64 { return float64(l.ns[s].Load()) / 1e9 }

func (l *ledger) total(c count) float64 { return float64(l.n[c].Load()) }

func (l *ledger) maxHeap(v int64) {
	for {
		cur := l.heapMax.Load()
		if v <= cur || l.heapMax.CompareAndSwap(cur, v) {
			return
		}
	}
}

// engineSpan maps an engine kind onto its span.
func engineSpan(k harness.Kind) span {
	switch k {
	case harness.KindTimed:
		return spEngineTimed
	case harness.KindLockstep:
		return spEngineLock
	default:
		return spEngineDet
	}
}

// tracedEngine decorates a harness.Engine: it wraps the job's processes,
// adversary and latency model, attaches a telemetry recorder to timed jobs
// that carry none (the DES counters are read from its spans and series), and
// charges the run to the engine's span. Telemetry observes the run without
// changing it, and every other decorator forwards its inner value's results
// unchanged, so a traced run reports exactly what an untraced one does.
type tracedEngine struct {
	inner harness.Engine
	l     *ledger
	as    span // the span Run is charged to
}

func (e *tracedEngine) Kind() harness.Kind                 { return e.inner.Kind() }
func (e *tracedEngine) Capabilities() harness.Capabilities { return e.inner.Capabilities() }

// Close releases the inner engine's resources, if it holds any.
func (e *tracedEngine) Close() {
	if c, ok := e.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

func (e *tracedEngine) Run(job harness.Job) (*sim.Result, error) {
	procs := make([]tracedProc, len(job.Procs))
	wrapped := make([]sim.Process, len(job.Procs))
	for i, p := range job.Procs {
		procs[i].Process = p
		wrapped[i] = &procs[i]
	}
	job.Procs = wrapped
	job.Adv = wrapAdversary(job.Adv, e.l)
	var lat *tracedLatency
	var rec *telemetry.Recorder
	if e.inner.Capabilities().Timed {
		inner := job.Latency
		if inner == nil {
			inner = timed.DefaultModel() // what the engine substitutes for nil
		}
		lat = &tracedLatency{inner: inner}
		job.Latency = lat
		if job.Telemetry == nil {
			rec = recorders.Get().(*telemetry.Recorder)
			rec.Reset()
			job.Telemetry = rec
		}
	}
	t0 := time.Now()
	res, err := e.inner.Run(job)
	e.l.since(e.as, t0)

	for i := range procs {
		p := &procs[i]
		e.l.add(spSend, p.sendNs)
		e.l.add(spReceive, p.recvNs)
		e.l.count(cSendCalls, p.sends)
		e.l.count(cInboxMsgs, p.inbox)
	}
	if lat != nil {
		e.l.add(spLatency, lat.ns)
		e.l.count(cLatCalls, lat.calls)
	}
	if rec != nil {
		foldDES(e.l, rec)
		recorders.Put(rec)
	}
	if res != nil {
		e.l.count(cMsgs, int64(res.Counters.DataMsgs+res.Counters.CtrlMsgs))
		e.l.count(cRounds, int64(res.Rounds))
	}
	return res, err
}

// foldDES reads one timed run's DES batch spans, heap-size series and final
// pool hit rate into the ledger.
func foldDES(l *ledger, rec *telemetry.Recorder) {
	var batches, events int64
	for _, s := range rec.Spans() {
		if s.Kind == telemetry.SpanBatch {
			batches++
			events += int64(s.Count)
		}
	}
	l.count(cDESBatches, batches)
	l.count(cDESEvents, events)
	for _, s := range rec.Samples(telemetry.SeriesHeapSize) {
		l.maxHeap(int64(s.V))
	}
	if hits := rec.Samples(telemetry.SeriesPoolHitRate); len(hits) > 0 {
		l.poolHitPM.Add(int64(hits[len(hits)-1].V * 1000))
		l.count(cDESRuns, 1)
	}
}

// tracedProc decorates one sim.Process. Its counters are plain fields: an
// engine drives each process from one goroutine at a time and the engine
// decorator folds them into the ledger after Run has returned.
type tracedProc struct {
	sim.Process
	sendNs, recvNs time.Duration
	sends, inbox   int64
}

func (p *tracedProc) Send(r sim.Round) sim.SendPlan {
	t0 := time.Now()
	plan := p.Process.Send(r)
	p.sendNs += time.Since(t0)
	p.sends++
	return plan
}

func (p *tracedProc) Receive(r sim.Round, inbox []sim.Message) {
	t0 := time.Now()
	p.Process.Receive(r, inbox)
	p.recvNs += time.Since(t0)
	p.inbox += int64(len(inbox))
}

// tracedAdversary decorates a crash-only sim.Adversary.
type tracedAdversary struct {
	inner sim.Adversary
	l     *ledger
}

func (a tracedAdversary) Crashes(p sim.ProcID, r sim.Round, plan sim.SendPlan) (bool, sim.CrashOutcome) {
	t0 := time.Now()
	crash, out := a.inner.Crashes(p, r, plan)
	a.l.since(spAdversary, t0)
	a.l.count(cCrashCalls, 1)
	if crash {
		a.l.count(cAdvEvents, 1)
	}
	return crash, out
}

// tracedOmitter additionally decorates the optional sim.Omitter interface.
type tracedOmitter struct {
	tracedAdversary
	om sim.Omitter
}

func (a tracedOmitter) Omits(p sim.ProcID, r sim.Round, plan sim.SendPlan) sim.Omission {
	t0 := time.Now()
	o := a.om.Omits(p, r, plan)
	a.l.since(spAdversary, t0)
	a.l.count(cOmitCalls, 1)
	if !o.IsZero() {
		a.l.count(cAdvEvents, 1)
	}
	return o
}

// wrapAdversary decorates adv, presenting sim.Omitter only when adv itself
// implements it: engines switch to the omission path on that type assertion,
// so forwarding it unconditionally would change what they execute.
func wrapAdversary(adv sim.Adversary, l *ledger) sim.Adversary {
	if adv == nil {
		return nil
	}
	t := tracedAdversary{inner: adv, l: l}
	if om, ok := adv.(sim.Omitter); ok {
		return tracedOmitter{tracedAdversary: t, om: om}
	}
	return t
}

// tracedLatency decorates a timed.LatencyModel for one run of the
// single-goroutine timed engine.
type tracedLatency struct {
	inner timed.LatencyModel
	ns    time.Duration
	calls int64
}

func (m *tracedLatency) Params() (d, delta des.Time) { return m.inner.Params() }

func (m *tracedLatency) Latency(from, to sim.ProcID, r sim.Round, kind sim.MsgKind) des.Time {
	t0 := time.Now()
	v := m.inner.Latency(from, to, r, kind)
	m.ns += time.Since(t0)
	m.calls++
	return v
}

// tracedOracle charges a fuzz oracle to its span.
func tracedOracle(o fuzz.Oracle, l *ledger) fuzz.Oracle {
	return func(props []sim.Value, res *sim.Result, runErr error) error {
		t0 := time.Now()
		err := o(props, res, runErr)
		l.since(spFuzzOracle, t0)
		return err
	}
}

// tracedFactory charges a fuzz target factory's protocol construction.
func tracedFactory(f fuzz.Factory, l *ledger) fuzz.Factory {
	return func() fuzz.Target {
		t0 := time.Now()
		t := f()
		l.since(spProtoNew, t0)
		return t
	}
}
