package core

import (
	"fmt"
	"runtime"
	"time"

	"fluodb/internal/chaos"
	"fluodb/internal/retry"
	"fluodb/internal/types"
)

// Intra-batch parallelism. FluoDB is "a parallel online query execution
// framework" (§1); here each mini-batch is sharded across the engine's
// persistent workers (pool.go), each folding into a private aggregate
// table and uncertain buffer, merged deterministically (worker 0..P−1)
// afterwards. All aggregate states are mergeable by construction
// (internal/agg), the CLT moments merge with the parallel-variance
// formula, and per-tuple resamples are counter-based hashes, so the
// statistics are identical to a serial run up to group insertion order.
//
// Worker shard state persists across batches: tables are reset (entry
// free list), not reallocated, and the weights scratch, uncertain
// buffers and classification environments are reused.

// merge folds another accumulator into a (Chan et al. parallel
// variance).
func (a *cltAcc) merge(b cltAcc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*a.n*b.n/n
	a.mean += d * b.n / n
	a.n = n
}

// feedShard folds rows[lo:hi) of a mini-batch into a private table and
// uncertain buffer. te, tab, uncertain, arena, the cs columnar
// scratch and the wbuf weights scratch must be private to the worker;
// the (possibly grown) scratch is returned for reuse. pf, when non-nil,
// supplies prefetched subsample membership and weight vectors for the
// whole batch (read-only, safely shared across shards). When the
// block's columnar plan applies (and cs is provided), the shard is swept
// by the vectorized classify/fold path instead of the row loop below —
// bit-identically.
func (r *blockRunner) feedShard(rows []types.Row, baseIdx int, ts *tableStream, te *triEnv, tab *onlineTable, uncertain *[]uncertainRow, arena *weightArena, folds *int64, wbuf []uint8, pf *weightPrefetch, cs *colScratch) []uint8 {
	e := r.eng
	if cs != nil && r.colFeed(rows, baseIdx, ts, te, tab, uncertain, arena, folds, cs, pf) {
		return wbuf
	}
	trials := e.opt.Trials
	for i, fact := range rows {
		var weights []uint8
		repW := 0.0
		if pf != nil {
			if ri := baseIdx + i - pf.start; pf.sampled[ri] {
				weights = pf.weights[ri*trials : (ri+1)*trials]
				repW = ts.invP
			}
		} else if e.sampled(ts, baseIdx+i) {
			wbuf = e.weightsInto(wbuf, ts, baseIdx+i)
			weights = wbuf
			repW = ts.invP
		}
		r.feedTupleTo(fact, weights, repW, te, tab, uncertain, arena, folds)
	}
	return wbuf
}

// feedBatchSerial folds a mini-batch on the caller's goroutine into the
// runner's own state, reusing its weights scratch. Columnar-eligible
// blocks sweep the batch through colFeed instead (bit-identical, see
// columnar.go).
func (r *blockRunner) feedBatchSerial(rows []types.Row, baseIdx int, ts *tableStream, te *triEnv, pf *weightPrefetch) {
	r.ensureColPlan()
	r.revalidateColPlan()
	var cs *colScratch
	if r.colPl.ok {
		if r.cs == nil {
			r.cs = &colScratch{}
		}
		cs = r.cs
	}
	r.wbuf = r.feedShard(rows, baseIdx, ts, te, r.tab, &r.uncertain, &r.arena,
		&r.eng.metrics.DeterministicFolds, r.wbuf, pf, cs)
}

// chaosFault is the panic value of an injected fault, so containment
// diagnostics can tell injected faults from real bugs.
type chaosFault struct{ kind chaos.Kind }

func (c *chaosFault) String() string { return "chaos: injected " + c.kind.String() }

// panicNote renders a recovered panic value for trace events.
func panicNote(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// feedBatchParallel shards one mini-batch across the engine's workers.
// It falls back to serial feeding for small batches, or when the shard
// clamp leaves a single worker (one worker with full shard/merge
// overhead would only be slower). A worker panic (injected or real) is
// contained: the affected shard scratch is quarantined and the whole
// batch is redone serially over the same shard boundaries, which is
// bit-identical to a clean parallel pass by construction. Only when the
// serial retries themselves keep panicking does a typed error surface.
func (r *blockRunner) feedBatchParallel(rows []types.Row, baseIdx int, ts *tableStream, te *triEnv, pf *weightPrefetch) error {
	e := r.eng
	// Build the columnar plan on the controller before any worker can
	// race to it (workers share the runner shallowly); re-acquire the
	// encoding here too if a fault dropped it.
	r.ensureColPlan()
	r.revalidateColPlan()
	workers := e.opt.Parallelism
	thr := e.opt.ParallelThreshold
	if workers <= 1 || len(rows) < 2*thr {
		r.feedBatchSerial(rows, baseIdx, ts, te, pf)
		return nil
	}
	if max := len(rows) / thr; workers > max {
		workers = max
	}
	if workers <= 1 {
		r.feedBatchSerial(rows, baseIdx, ts, te, pf)
		return nil
	}
	pool := e.ensurePool()
	if pool == nil { // engine closed: degrade to serial, stay correct
		r.feedBatchSerial(rows, baseIdx, ts, te, pf)
		return nil
	}
	inj := e.opt.Chaos
	g := &taskGroup{}
	size := len(rows) / workers
	submitted := workers
	for w := 0; w < workers; w++ {
		lo := w * size
		hi := lo + size
		if w == workers-1 {
			hi = len(rows)
		}
		err := pool.submit(w, g, func(wc *workerCtx) {
			if inj != nil {
				switch k := inj.ShardFault(ts.name, baseIdx, wc.id); k {
				case chaos.KindPanic:
					e.traceFault("panic", ts.name, wc.id, "injected worker panic")
					panic(&chaosFault{kind: k})
				case chaos.KindStraggler:
					// A straggler is benign for correctness — merge order is
					// fixed by worker index — but stresses barrier/scheduling.
					e.traceFault("straggler", ts.name, wc.id, "injected straggler delay")
					inj.Sleep()
				case chaos.KindCorrupt:
					// Poison the private shard (double-fold its rows) and then
					// fail: the soak's bit-identity check proves the corrupted
					// scratch is quarantined, never merged.
					e.traceFault("corrupt", ts.name, wc.id, "injected shard corruption")
					sh := wc.shard(r)
					wte := wc.refresh(e)
					wr := *r
					wr.joiner = sh.joiner
					wc.wbuf = wr.feedShard(rows[lo:hi], baseIdx+lo, ts, wte,
						sh.tab, &sh.uncertain, &sh.arena, &sh.folds, wc.wbuf, pf, sh.cs)
					panic(&chaosFault{kind: k})
				}
			}
			sh := wc.shard(r)
			wte := wc.refresh(e)
			sl := e.workerSlab(wc.id)
			tsp := sl.Begin("task", e.spanFeed, e.spanBatchNo, r.b.ID)
			wr := *r // shallow: shares block/engine, swaps per-worker scratch
			wr.joiner = sh.joiner
			wc.wbuf = wr.feedShard(rows[lo:hi], baseIdx+lo, ts, wte,
				sh.tab, &sh.uncertain, &sh.arena, &sh.folds, wc.wbuf, pf, sh.cs)
			sl.End(tsp)
		})
		if err != nil {
			// Pool stopped mid-submit: drain what made it onto the workers,
			// then redo everything serially.
			submitted = w
			break
		}
	}
	panics := g.wait()
	if submitted < workers || len(panics) > 0 {
		for _, p := range panics {
			e.trace.Emit(Event{Kind: EvWorkerPanic, Key: ts.name, Worker: p.worker, Note: panicNote(p.val)})
		}
		// Any worker's shard for this runner may hold a partial or
		// poisoned fold; discard them all and rebuild on the next batch.
		pool.quarantine(r.idx)
		return r.retrySerial(rows, baseIdx, ts, te, pf, workers, size)
	}
	// Drain worker shards in worker order (0..P−1): with shard
	// boundaries fixed by row position the group insertion order is a
	// function of the batch and P alone, never of worker timing.
	for w := 0; w < workers; w++ {
		sh := pool.ctxs[w].shards[r.idx]
		r.tab.merge(sh.tab)
		r.uncertain = append(r.uncertain, sh.uncertain...)
		r.arena.adopt(&sh.arena)
		e.metrics.DeterministicFolds += sh.folds
		sh.folds = 0
		// The uncertain rows now live in r.uncertain; keep the worker
		// buffer (zeroed so dropped rows stay collectable) and recycle
		// the shard table's entries for the next batch.
		for i := range sh.uncertain {
			sh.uncertain[i] = uncertainRow{}
		}
		sh.uncertain = sh.uncertain[:0]
		sh.tab.recycle()
	}
	r.sampledIdxValid = false
	return nil
}

// maxShardRetries bounds the serial redo ladder after a contained
// worker failure.
const maxShardRetries = 3

// retrySerial redoes a failed parallel batch on the controller's
// goroutine under the shared bounded-backoff policy (internal/retry:
// the nominal ladder 1ms→2ms→4ms, cap 8ms).
// Each attempt folds the exact shard partition of the failed pass into
// fresh staging tables and merges them in worker order — float addition
// is non-associative, so replaying the same shard plan (rather than one
// flat serial fold) is what makes the retry bit-identical to a clean
// parallel pass. Chaos injection never fires here (faults are keyed to
// pool workers), so an injected schedule cannot livelock the redo.
func (r *blockRunner) retrySerial(rows []types.Row, baseIdx int, ts *tableStream, te *triEnv, pf *weightPrefetch, workers, size int) error {
	e := r.eng
	var lastPanic any
	pol := retry.Policy{Attempts: maxShardRetries, Base: time.Millisecond, Cap: 8 * time.Millisecond}
	err := pol.Do(func(attempt int) error {
		e.trace.Emit(Event{Kind: EvSerialRetry, Key: ts.name, Kept: attempt})
		ssp := e.sctl.Begin("serial-retry", e.spanFeed, e.spanBatchNo, r.b.ID)
		ok, pv := r.serialShardPass(rows, baseIdx, ts, te, pf, workers, size)
		e.sctl.End(ssp)
		if ok {
			return nil
		}
		lastPanic = pv
		return fmt.Errorf("attempt %d panicked", attempt)
	})
	if err == nil {
		return nil
	}
	return &QueryError{Kind: ErrKindWorkerPanic, Batch: e.batch, Worker: -1,
		Note: fmt.Sprintf("parallel batch failed and %d serial retries panicked: %s", maxShardRetries, panicNote(lastPanic))}
}

// serialShardPass folds the batch's shard partition sequentially into
// staging tables, committing into the runner only when every shard
// completed — a panic mid-pass (necessarily a real bug, not injection)
// discards the staging wholesale so the runner's own state is never
// half-updated and the next attempt starts clean.
func (r *blockRunner) serialShardPass(rows []types.Row, baseIdx int, ts *tableStream, te *triEnv, pf *weightPrefetch, workers, size int) (ok bool, panicVal any) {
	e := r.eng
	type staging struct {
		tab       *onlineTable
		uncertain []uncertainRow
		arena     weightArena
		folds     int64
	}
	outs := make([]staging, workers)
	defer func() {
		if v := recover(); v != nil {
			panicVal = v
		}
	}()
	for w := 0; w < workers; w++ {
		lo := w * size
		hi := lo + size
		if w == workers-1 {
			hi = len(rows)
		}
		st := &outs[w]
		st.tab = newShardTable(e.opt.Trials)
		st.tab.configure(r.cltKinds)
		if r.cs == nil {
			r.cs = &colScratch{}
		}
		r.wbuf = r.feedShard(rows[lo:hi], baseIdx+lo, ts, te,
			st.tab, &st.uncertain, &st.arena, &st.folds, r.wbuf, pf, r.cs)
	}
	for w := 0; w < workers; w++ {
		st := &outs[w]
		r.tab.merge(st.tab)
		r.uncertain = append(r.uncertain, st.uncertain...)
		r.arena.adopt(&st.arena)
		e.metrics.DeterministicFolds += st.folds
	}
	r.sampledIdxValid = false
	return true, nil
}

// defaultParallelism resolves Parallelism 0.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }
