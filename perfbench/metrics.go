package main

// timedExecs returns the timed query executions (the queries of the
// explore-ingest rounds) made with tracing on or off.
func (b *bench) timedExecs(traced bool) []*execResult {
	var out []*execResult
	for _, r := range b.timed {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	for _, rd := range b.rounds {
		if rd.traced == traced {
			out = append(out, rd.exec)
		}
	}
	return out
}

// stepSamples pools the Step latencies of the timed executions per
// query, in first-seen query order.
func (b *bench) stepSamples(traced bool) *perQuery {
	pq := newPerQuery()
	for _, r := range b.timedExecs(traced) {
		for _, d := range r.stepMs {
			pq.add(r.query, d)
		}
	}
	return pq
}

// refresh returns the geometric means over queries of each query's
// median Step latency and of its tail (tailPercentile, lowered where
// fewer than ten samples lie beyond it), with the lowest percentile
// used and the fewest samples beyond it.
func (b *bench) refresh(traced bool) (p50, tailMs, pctUsed float64, beyond int) {
	pq := b.stepSamples(traced)
	var meds, tails []float64
	pctUsed, beyond = tailPercentile, -1
	for _, q := range pq.order {
		meds = append(meds, median(pq.vals[q]))
		v, used, n := tail(pq.vals[q])
		tails = append(tails, v)
		pctUsed = min(pctUsed, used)
		if beyond < 0 || n < beyond {
			beyond = n
		}
	}
	return geomean(meds), geomean(tails), pctUsed, beyond
}

// roundsPerS is closed-loop throughput per second of operation time.
// On explore-ingest it counts ingest-and-query rounds. Elsewhere the
// loop runs cheap queries more often than expensive ones, so it is the
// rate of passes that run each query once, at each query's median time.
func (b *bench) roundsPerS(traced bool) float64 {
	var n int
	var spent float64
	if len(b.rounds) > 0 {
		for _, rd := range b.rounds {
			if rd.traced == traced {
				n++
				spent += rd.ms()
			}
		}
	} else {
		pq := newPerQuery()
		for _, r := range b.timedExecs(traced) {
			pq.add(r.query, r.opMs())
		}
		for _, q := range pq.order {
			n++
			spent += median(pq.vals[q])
		}
	}
	if spent == 0 {
		return 0
	}
	return float64(n) / spent * 1000
}

func geomeanBy(execs []*execResult, f func(*execResult) float64) float64 {
	pq := newPerQuery()
	for _, r := range execs {
		pq.add(r.query, f(r))
	}
	return pq.geomeanOfMedians()
}

func (b *bench) endToEnd() map[string]metric {
	ex := b.timedExecs(false)
	p50, tailMs, _, _ := b.refresh(false)
	var setup []float64
	for _, r := range b.reps {
		setup = append(setup, r.totalS)
	}
	var live float64
	for _, r := range b.check {
		live = max(live, r.liveMB)
	}
	return map[string]metric{
		"setup_s":           {median(setup), "s"},
		"first_answer_ms":   {geomeanBy(ex, func(r *execResult) float64 { return r.firstMs }), "ms"},
		"time_to_target_ms": {geomeanBy(ex, func(r *execResult) float64 { return r.toTargetMs }), "ms"},
		"complete_ms":       {geomeanBy(ex, func(r *execResult) float64 { return r.completeMs }), "ms"},
		"refresh_p50_ms":    {p50, "ms"},
		"refresh_tail_ms":   {tailMs, "ms"},
		"rounds_per_s":      {b.roundsPerS(false), "1/s"},
		"peak_heap_mb":      {live - b.checkBaseMB, "MB"},
	}
}

// perQueryMean averages f per query, then over queries, so that the
// queries the timed loop runs most often do not outweigh the others.
func perQueryMean(execs []*execResult, f func(*execResult) float64) float64 {
	pq := newPerQuery()
	for _, r := range execs {
		pq.add(r.query, f(r))
	}
	var sum float64
	for _, q := range pq.order {
		var qs float64
		for _, v := range pq.vals[q] {
			qs += v
		}
		sum += qs / float64(len(pq.vals[q]))
	}
	return ratio(sum, float64(len(pq.order)))
}

func (b *bench) perLayer() map[string]metric {
	ex := b.timedExecs(true)
	var gen, build, appendMs, update, recompStep []float64
	for _, r := range b.reps {
		gen = append(gen, r.genMs)
		build = append(build, r.buildMs)
	}
	var roundMs, updFirst float64
	for _, rd := range b.rounds {
		if rd.traced {
			appendMs = append(appendMs, rd.appendMs)
			update = append(update, rd.updateMs)
			roundMs += rd.ms()
			updFirst += rd.updateMs + rd.exec.stepMs[0]
		}
	}
	for _, r := range ex {
		recompStep = append(recompStep, r.recomputeStepMs...)
	}
	var nonFold [4]float64
	for i := range nonFold {
		nonFold[i] = perQueryMean(ex, func(r *execResult) float64 { return r.nonFold[i] })
	}
	nf := perQueryMean(ex, func(r *execResult) float64 { return r.nonFoldOnce })
	stepWall := perQueryMean(ex, (*execResult).stepWallMs)

	var c counts
	var detFolds, evictions, memPeak int64
	var uncertainSum, steps int
	for _, r := range b.check {
		c.RowsProcessed += r.counts.RowsProcessed
		c.Recomputes += r.counts.Recomputes
		c.UncertainMax = max(c.UncertainMax, r.counts.UncertainMax)
		c.BatchesToTarget += r.counts.BatchesToTarget
		c.DetFlips += r.counts.DetFlips
		detFolds += r.detFolds
		evictions += r.evictions
		memPeak = max(memPeak, r.memPeak)
		uncertainSum += r.uncertainSum
		steps += len(r.stepMs)
	}
	var oracle, k1 []float64
	for _, q := range b.spec.queries {
		oracle = append(oracle, median(b.oracleMs[q]))
		k1 = append(k1, b.k1[q])
	}
	k1ms := geomean(k1)
	completeMs := func(r *execResult) float64 { return r.completeMs }
	// The online run that k=1 is compared with runs to completion on the
	// same table: the untraced timed executions, or on explore-ingest,
	// whose timed queries stop early, the check pass on the grown table.
	online := geomeanBy(b.timedExecs(false), completeMs)
	overhead := ratioPct(geomeanBy(ex, completeMs), online)
	if len(b.rounds) > 0 {
		online = geomeanBy(b.check, completeMs)
		overhead = ratioPct(b.roundsPerS(false), b.roundsPerS(true))
	}
	return map[string]metric{
		"workload.gen_ms":                   {median(gen), "ms"},
		"storage.append_ms":                 {median(appendMs), "ms"},
		"colstore.build_ms":                 {median(build), "ms"},
		"colstore.update_ms":                {median(update), "ms"},
		"colstore.mb":                       {b.colMB, "MB"},
		"plan.compile_ms":                   {geomeanBy(ex, func(r *execResult) float64 { return r.compileMs }), "ms"},
		"core.new_ms":                       {geomeanBy(ex, func(r *execResult) float64 { return r.newMs }), "ms"},
		"core.first_step_ms":                {geomeanBy(ex, func(r *execResult) float64 { return r.stepMs[0] }), "ms"},
		"core.recompute_step_ms":            {median(recompStep), "ms"},
		"core.close_ms":                     {geomeanBy(ex, func(r *execResult) float64 { return r.closeMs }), "ms"},
		"core.uncertain_ms":                 {nonFold[0], "ms"},
		"core.ranges_ms":                    {nonFold[1], "ms"},
		"core.recompute_ms":                 {nonFold[2], "ms"},
		"core.snapshot_ms":                  {nonFold[3], "ms"},
		"core.fold_other_ms":                {stepWall - nf, "ms"},
		"core.nonfold_pct":                  {pct(nf, stepWall), "%"},
		"core.rows_processed":               {float64(c.RowsProcessed), "count"},
		"core.det_fold_ratio":               {ratio(float64(detFolds), float64(c.RowsProcessed)), "ratio"},
		"core.uncertain_max":                {float64(c.UncertainMax), "count"},
		"core.uncertain_mean":               {ratio(float64(uncertainSum), float64(steps)), "count"},
		"core.recomputes":                   {float64(c.Recomputes), "count"},
		"core.det_flips":                    {float64(c.DetFlips), "count"},
		"core.evictions":                    {float64(evictions), "count"},
		"core.batches_to_1pct":              {float64(c.BatchesToTarget), "count"},
		"core.mem_peak_mb":                  {float64(memPeak) / 1e6, "MB"},
		"exec.oracle_ms":                    {geomean(oracle), "ms"},
		"core.k1_ms":                        {k1ms, "ms"},
		"online_overhead_x":                 {ratio(online, k1ms), "x"},
		"go.gc_cycles":                      {float64(b.gcCycles), "count"},
		"go.gc_pause_ms":                    {b.gcPauseMs, "ms"},
		"go.alloc_mb":                       {b.allocMB, "MB"},
		"go.heap_peak_mb":                   {b.timedHeapPeakMB - b.timedBaseMB, "MB"},
		"audit.ci_gap":                      {b.ciGap(), "ratio"},
		"bench.failed_frac":                 {ratio(float64(b.failed), float64(b.attempted)), "ratio"},
		"bench.trace_overhead_pct":          {overhead, "%"},
		"bench.round_update_first_step_pct": {pct(updFirst, roundMs), "%"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b float64) float64 { return 100 * ratio(a, b) }

// ratioPct is how much larger a is than b, in percent.
func ratioPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}
