package main

// layerMetrics turns a traced run's ledger into the per-layer metrics. Times
// are seconds per item and counts are per item unless the unit says per
// call; a layer the workload never reaches reads 0. wall is the traced calls'
// total wall time.
//
// Self times are exclusive: a layer's span minus the spans of the layers it
// calls. Their sum, plus the pool's queue wait, should cover the traced
// calls' wall time on every worker; what it leaves uncovered is reported as
// ledger.unattributed_frac.
func layerMetrics(l *ledger, w bench, items, calls int, wall, publicWall float64) map[string]metric {
	sec := l.seconds
	item := float64(max(items, 1))
	call := float64(max(calls, 1))
	engines := sec(spEngineDet) + sec(spEngineTimed) + sec(spEngineLock)
	engineSelf := engines - sec(spSend) - sec(spReceive) - sec(spAdversary) - sec(spLatency)
	agreeSelf := sec(spPost)
	if c := sec(spConfig); c > 0 {
		agreeSelf += c - sec(spProtoNew) - engines - sec(spLaws) - sec(spCheck)
	}
	var smrSelf, slotEngine, fuzzSelf, fuzzEngine float64
	if s := sec(spServe); s > 0 {
		slotEngine = engines
		// The replays estimate work done inside the span; timing noise can
		// make them exceed it, which then shows as negative unattributed time.
		smrSelf = max(0, s-engines-sec(spPercentile)-sec(spArrivals))
	}
	if s := sec(spFuzzSeed); s > 0 {
		fuzzEngine = engines
		fuzzSelf = s - sec(spProtoNew) - engines - sec(spFuzzOracle)
	}
	selfSum := sec(spQueueWait) + agreeSelf + sec(spProtoNew) + engineSelf + sec(spSend) + sec(spReceive) +
		sec(spAdversary) + sec(spLatency) + sec(spLaws) + sec(spCheck) + smrSelf + sec(spPercentile) +
		sec(spArrivals) + fuzzSelf + sec(spFuzzOracle)
	// The service replay runs inside the traced call but outside the service
	// it prices.
	wall -= sec(spReplay)
	workerWall := float64(w.workers()) * wall

	perItem := func(v float64) metric { return metric{v / item, "s/item"} }
	count := func(c count) metric { return metric{l.total(c) / item, "count/item"} }
	perCall := func(v float64) metric { return metric{v / call, "count/call"} }
	ratio := func(num, den float64) metric {
		if den == 0 {
			return metric{0, "ratio"}
		}
		return metric{num / den, "ratio"}
	}
	nsPerMsg := 0.0
	if msgs := l.total(cMsgs); msgs > 0 {
		nsPerMsg = engines * 1e9 / msgs
	}
	m := map[string]metric{
		"harness.queue_wait_s":     perItem(sec(spQueueWait)),
		"harness.run_s":            perItem(sec(spHarnessRun)),
		"harness.audit_s":          perItem(sec(spHarnessAudit)),
		"harness.crosscheck_s":     perItem(sec(spHarnessCross)),
		"harness.worker_util":      ratio(workerWall-sec(spQueueWait), workerWall),
		"harness.engines_built":    perCall(l.total(cEnginesBuilt)),
		"harness.engine_reuses":    perCall(l.total(cEngineReuses)),
		"agree.self_s":             perItem(agreeSelf),
		"engine.det.run_s":         perItem(sec(spEngineDet)),
		"engine.timed.run_s":       perItem(sec(spEngineTimed)),
		"engine.lockstep.run_s":    perItem(sec(spEngineLock)),
		"engine.self_s":            perItem(engineSelf),
		"engine.msgs":              count(cMsgs),
		"engine.rounds":            count(cRounds),
		"engine.ns_per_msg":        {nsPerMsg, "ns"},
		"protocol.new_s":           perItem(sec(spProtoNew)),
		"protocol.send_s":          perItem(sec(spSend)),
		"protocol.receive_s":       perItem(sec(spReceive)),
		"protocol.send_calls":      count(cSendCalls),
		"protocol.inbox_msgs":      count(cInboxMsgs),
		"adversary.s":              perItem(sec(spAdversary)),
		"adversary.crash_calls":    count(cCrashCalls),
		"adversary.omit_calls":     count(cOmitCalls),
		"adversary.events":         count(cAdvEvents),
		"latency.calls":            count(cLatCalls),
		"latency.s":                perItem(sec(spLatency)),
		"des.batches":              count(cDESBatches),
		"des.events":               count(cDESEvents),
		"des.heap_max":             {float64(l.heapMax.Load()), "count"},
		"des.pool_hit_rate":        ratio(float64(l.poolHitPM.Load())/1000, l.total(cDESRuns)),
		"laws.audit_s":             perItem(sec(spLaws)),
		"check.consensus_s":        perItem(sec(spCheck)),
		"smr.slots":                perCall(l.sim.slots),
		"smr.cmds_per_slot":        ratio(float64(items), l.sim.slots),
		"smr.rounds_per_slot":      ratio(l.sim.rounds, l.sim.slots),
		"smr.self_s":               perItem(smrSelf),
		"smr.slot_engine_s":        perItem(slotEngine),
		"stats.percentile_s":       perItem(sec(spPercentile)),
		"workload.arrivals_s":      perItem(sec(spArrivals)),
		"fuzz.seed_s":              perItem(sec(spFuzzSeed)),
		"fuzz.engine_s":            perItem(fuzzEngine),
		"fuzz.oracle_s":            perItem(sec(spFuzzOracle)),
		"fuzz.self_s":              perItem(fuzzSelf),
		"fuzz.execs_per_seed":      ratio(l.total(cFuzzExecs), l.total(cFuzzSeeds)),
		"fuzz.useful_ratio":        ratio(l.total(cFuzzSeeds), l.total(cFuzzExecs)),
		"fuzz.shrink_runs":         perCall(l.total(cShrinkRuns)),
		"fuzz.findings":            perCall(l.total(cFindings)),
		"ledger.unattributed_frac": ratio(workerWall-selfSum, workerWall),
		"trace.overhead_frac":      ratio(wall-publicWall, publicWall),
		"commit_p50_sim":           {l.sim.p50, "sim"},
		"commit_p99_sim":           {l.sim.p99, "sim"},
		"recovery_sim":             {l.sim.recovery, "sim"},
	}
	return m
}
