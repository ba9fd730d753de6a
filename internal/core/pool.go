package core

import (
	"runtime"
	"runtime/debug"
	"sync"

	"fluodb/internal/exec"
	"fluodb/internal/expr"
)

// The persistent worker pool. PF-OLA's lesson (and our own PR 2
// profiles) is that parallel OLA pays off only when estimation work is
// overlapped with execution instead of re-set-up at every barrier: the
// previous runtime re-spawned goroutines and re-allocated per-worker
// group tables for every mini-batch, and ran reclassification and
// bootstrap-weight generation serially on the controller. Here each
// engine owns P long-lived workers, each with a reusable shard context
// (group table reset — not reallocated — across batches, a refreshable
// classification environment, weight arena, uncertain buffer, joiner
// clone). The controller feeds work descriptors over
// per-worker channels; shard k always runs on worker k and results are
// merged in worker order, so the pooled runtime is bit-identical to a
// serial run (see parallel.go for the group-ordering caveat).
//
// Fault containment: a task panic must not take down the worker (its
// channel would deadlock every later barrier) or the process. Each task
// runs under recover; the panic value and stack are recorded on the
// task's group and surfaced to the controller at the barrier, which
// quarantines the affected shard scratch and redoes the work serially.
//
// Lifecycle: the pool is created lazily on first parallel work and
// stopped by Engine.Close. A finalizer backstops engines that are
// dropped without Close — workers hold no reference to the engine
// between tasks (contexts are delivered inside each task, and the task
// value is cleared before the next blocking receive), so an abandoned
// engine becomes collectable and its finalizer shuts the workers down.
// submit after stop returns ErrPoolStopped (never panics); callers fall
// back to the serial path.

// workerPanic is one recovered task panic, captured for the barrier.
type workerPanic struct {
	worker int
	val    any
	stack  []byte
}

// taskGroup is the submission barrier: a WaitGroup plus a panic
// collector. wait() drains and returns any panics recovered while the
// group's tasks ran.
type taskGroup struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	panics []workerPanic
}

func (g *taskGroup) record(worker int, val any, stack []byte) {
	g.mu.Lock()
	g.panics = append(g.panics, workerPanic{worker: worker, val: val, stack: stack})
	g.mu.Unlock()
}

// wait blocks for every submitted task and returns recovered panics
// (nil when all tasks completed cleanly).
func (g *taskGroup) wait() []workerPanic {
	g.wg.Wait()
	g.mu.Lock()
	p := g.panics
	g.panics = nil
	g.mu.Unlock()
	return p
}

// poolTask is one unit of work: fn runs on the worker's goroutine with
// the worker's reusable context; g is the submitter's barrier.
type poolTask struct {
	fn  func(*workerCtx)
	g   *taskGroup
	ctx *workerCtx
}

// workerShard is one worker's per-block reusable fold state. Everything
// here is private to the worker during a batch and drained by the
// controller at the merge barrier.
type workerShard struct {
	tab       *onlineTable
	uncertain []uncertainRow
	arena     weightArena
	joiner    *exec.Joiner
	folds     int64
	cs        *colScratch
}

// workerCtx is one worker's cross-batch scratch. It deliberately holds
// no *Engine or *blockRunner: the pool must not keep an abandoned
// engine reachable, or the shutdown finalizer could never run.
type workerCtx struct {
	id     int
	te     *triEnv
	wbuf   []uint8
	shards []*workerShard
}

// shard returns (creating on first use) the worker's reusable fold
// state for runner r. A quarantined shard slot (nil after a panic) is
// simply rebuilt here on the next batch.
func (wc *workerCtx) shard(r *blockRunner) *workerShard {
	for len(wc.shards) <= r.idx {
		wc.shards = append(wc.shards, nil)
	}
	sh := wc.shards[r.idx]
	if sh == nil {
		sh = &workerShard{
			tab: newShardTable(r.eng.opt.Trials),
			// joiner shares the (read-only) dimension hash tables but its
			// one-row scratch is per-call state: each worker owns a clone.
			joiner: r.joiner.CloneForWorker(),
			cs:     &colScratch{},
		}
		sh.tab.configure(r.cltKinds)
		wc.shards[r.idx] = sh
	}
	return sh
}

// refresh returns the worker's classification environment, rebinding it
// to the engine's current parameter estimates. The environment is built
// once per worker; per-batch refresh only re-snapshots the scalar
// values/ranges (group and set lookups read the live bindings). Its
// expression-fact memos capture the engine's read-only cache maps, not
// the engine itself.
func (wc *workerCtx) refresh(e *Engine) *triEnv {
	if wc.te == nil {
		wc.te = e.bind.workerTriEnv()
		hp, hc := e.hpCache, e.colCache
		wc.te.hp = func(x expr.Expr) bool {
			if v, ok := hp[x]; ok {
				return v
			}
			return expr.HasParams(x)
		}
		wc.te.hc = func(x expr.Expr) bool {
			if v, ok := hc[x]; ok {
				return v
			}
			return hasCols(x)
		}
	}
	e.bind.refreshTriEnv(wc.te)
	return wc.te
}

// workerPool is a set of long-lived worker goroutines with per-worker
// task channels. Shard i of any batch is always submitted to worker i,
// which pins shard scratch to one goroutine and makes merge order (and
// therefore output) deterministic.
type workerPool struct {
	chans []chan poolTask
	ctxs  []*workerCtx
	mu    sync.RWMutex
	// stopped guards the channels: submit holds the read lock while
	// sending, stop flips the flag under the write lock before closing,
	// so a send on a closed channel is impossible.
	stopped bool
}

func newWorkerPool(size int) *workerPool {
	p := &workerPool{
		chans: make([]chan poolTask, size),
		ctxs:  make([]*workerCtx, size),
	}
	for i := range p.chans {
		// A small buffer lets the controller enqueue the whole batch's
		// shards (and async prefetch work) without blocking.
		ch := make(chan poolTask, 4)
		p.chans[i] = ch
		p.ctxs[i] = &workerCtx{id: i}
		go poolWorker(ch)
	}
	return p
}

// poolWorker is the worker loop. It intentionally references nothing
// but its channel between tasks (the task value is zeroed before the
// next blocking receive), so an idle pool keeps only its channels alive.
func poolWorker(ch chan poolTask) {
	for {
		t, ok := <-ch
		if !ok {
			return
		}
		runPoolTask(t)
		t = poolTask{}
		_ = t
	}
}

// runPoolTask executes one task under panic containment: a panicking fn
// is recorded on its group (with the stack for diagnostics) and the
// barrier is still released, so the controller observes the failure
// instead of deadlocking on a dead worker.
func runPoolTask(t poolTask) {
	defer func() {
		if v := recover(); v != nil {
			t.g.record(t.ctx.id, v, debug.Stack())
		}
		t.g.wg.Done()
	}()
	t.fn(t.ctx)
}

// size returns the number of workers.
func (p *workerPool) size() int { return len(p.chans) }

// submit schedules fn on worker w under the given barrier. After stop
// it returns ErrPoolStopped without touching the closed channels; the
// caller runs the work serially instead. Holding the read lock across
// the send cannot deadlock stop: workers drain buffered tasks before
// exiting, so a blocked send always completes.
func (p *workerPool) submit(w int, g *taskGroup, fn func(*workerCtx)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.stopped {
		return ErrPoolStopped
	}
	g.wg.Add(1)
	p.chans[w] <- poolTask{fn: fn, g: g, ctx: p.ctxs[w]}
	return nil
}

// stop closes every worker channel. Idempotent; the caller must have
// drained all outstanding barriers first. submit after stop returns
// ErrPoolStopped.
func (p *workerPool) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.stopped = true
	for _, ch := range p.chans {
		close(ch)
	}
}

// quarantine discards every worker's shard scratch for runner idx after
// a contained panic: a partially-folded shard table must never be
// merged or recycled, so the slots are dropped for the collector and
// rebuilt clean on the next batch.
func (p *workerPool) quarantine(idx int) {
	for _, wc := range p.ctxs {
		if idx < len(wc.shards) {
			wc.shards[idx] = nil
		}
	}
}

// ensurePool returns the engine's worker pool, creating it (and
// arming the shutdown finalizer) on first use; nil after Close.
func (e *Engine) ensurePool() *workerPool {
	if e.closed {
		return nil
	}
	if e.pool == nil {
		e.pool = newWorkerPool(e.opt.Parallelism)
		runtime.SetFinalizer(e, (*Engine).Close)
	}
	return e.pool
}

// Close stops the engine's persistent worker pool and releases its
// scratch. It is idempotent and safe on engines that never went
// parallel. Further Steps fall back to serial execution. Engines
// dropped without Close are backstopped by a finalizer, but explicit
// Close releases the worker goroutines deterministically.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// Pipelined prefetch work may still be in flight on the workers;
	// drain it before closing their channels.
	for _, pf := range e.prefetch {
		pf.drain()
	}
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
	}
	runtime.SetFinalizer(e, nil)
}
