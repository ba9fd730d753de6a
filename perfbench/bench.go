package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"fluodb/internal/audit"
	"fluodb/internal/core"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
	"fluodb/internal/workload"
)

// spec is one workload. All three are closed loops: one analyst sends
// the next query only after the previous one finished.
type spec struct {
	name    string
	dataset string // "conviva" (table sessions) or "tpch" (lineitem, partsupp)
	rows    int
	queries []string
	batches int
	// Variant v of a query runs on dataset v mod datasets with an
	// Options.Seed derived from v. One seed's data and bootstrap draws
	// decide how many recomputes a nested query needs and when it
	// reaches 1% RSD; a median over several variants is steadier.
	datasets int
	// stopRSD > 0 stops each timed query at its first snapshot with
	// RSD() ≤ stopRSD instead of running it to completion.
	stopRSD float64
	// explore-ingest only: each round appends one chunk of chunkRows
	// rows; chunks distinct chunks are generated at set-up and used in
	// turn; after cycleRounds rounds the table is reset to its base rows.
	chunkRows, chunks, cycleRounds int
}

// Why these workloads: conviva-scan is the fold-bound side of the §5
// suite (few uncertain rows, no recompute work to speak of), where fold,
// classify and weight changes show; tpch-nested is the uncertain-set,
// snapshot and recompute-bound side, where those changes show and fold
// changes barely register; explore-ingest interleaves appends with short
// queries, so start-up, first-batch and incremental columnar-update
// costs dominate and work moved into them shows as a loss.
var specs = []spec{
	{name: "conviva-scan", dataset: "conviva", rows: 1_000_000,
		queries: []string{"SBI", "C1", "C2", "C3"}, batches: 20, datasets: 1},
	{name: "tpch-nested", dataset: "tpch", rows: 40_000,
		queries: []string{"Q11", "Q17", "Q18", "Q20"}, batches: 20, datasets: 4},
	{name: "explore-ingest", dataset: "conviva", rows: 1_000_000,
		queries: []string{"SBI", "C1", "C2", "C3"}, batches: 100, datasets: 1,
		stopRSD: 0.05, chunkRows: 10_000, chunks: 20, cycleRounds: 100},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	setupReps    = 3    // set-ups per run; setup_s is their median
	minVariants  = 4    // variants every query runs in the timed loop, one per tpch-nested dataset
	warmupRounds = 25   // explore-ingest rounds run untimed before the timed cycles
	targetRSD    = 0.01 // time_to_target_ms target of queries run to completion
	finalRelErr  = 1e-9 // float rounding allowed between a completed answer and exec.Run
)

// counts are the deterministic counts of one query execution. For a
// fixed seed and Parallelism they must repeat exactly.
type counts struct {
	RowsProcessed   int64 `json:"rows_processed"`
	Recomputes      int   `json:"recomputes"`
	UncertainMax    int   `json:"uncertain_max"`
	BatchesToTarget int   `json:"batches_to_target"`
	DetFlips        int   `json:"det_flips"`
}

// execResult is one query execution. Times are engine time only: the
// clock runs inside plan.Compile, core.New and each Step, so checks made
// between steps are not counted.
type execResult struct {
	query                           string
	variant                         int
	traced                          bool
	compileMs, newMs, closeMs       float64
	firstMs, toTargetMs, completeMs float64
	stepMs, recomputeStepMs         []float64
	nonFold                         [4]float64 // uncertain, ranges, recompute, snapshot (ms, summed)
	nonFoldOnce                     float64    // ms, summed; see nonFoldOnceMs
	counts                          counts
	detFolds, evictions, memPeak    int64
	uncertainSum                    int
	ciCells, ciMissed               int
	confidence, liveMB              float64
	final                           *core.Snapshot
	violations                      int
}

func (r *execResult) opMs() float64 { return r.completeMs + r.closeMs }

func (r *execResult) stepWallMs() float64 {
	var s float64
	for _, d := range r.stepMs {
		s += d
	}
	return s
}

// round is one explore-ingest round: append, columnar update, query.
type round struct {
	appendMs, updateMs float64
	exec               *execResult
	traced             bool
}

func (r *round) ms() float64 { return r.appendMs + r.updateMs + r.exec.opMs() }

type setupRep struct{ genMs, buildMs, totalS float64 }

// dataset is one generated catalog and the exact answers over it.
type dataset struct {
	cat     *storage.Catalog
	oracles map[string]*audit.Oracle
}

type runOpts struct {
	batches     int
	stopRSD     float64
	check       bool // audit every snapshot against the oracle, sample live heap
	parent, run int  // trace context
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64 // multiplier of rows and rounds per cycle: 1, or below 1 in the smoke tests
	out      string  // directory for spans and repeat-check files
}

type bench struct {
	cfg  config
	spec spec
	tr   *tracer

	data   []*dataset
	base   []types.Row   // explore-ingest: the base rows, len == cap
	chunks [][]types.Row // explore-ingest: pre-generated append chunks

	reps     []setupRep
	colMB    float64
	oracleMs map[string][]float64
	check    []*execResult // audited pass: warm-up, or explore-ingest's end check
	timed    []*execResult // timed passes
	rounds   []round
	k1       map[string]float64

	checkBaseMB     float64 // live heap before the check pass
	timing          bool    // inside the timed region
	timedBaseMB     float64 // live heap when the timed region starts
	timedHeapPeakMB float64
	memStart        runtime.MemStats
	gcCycles        uint32
	gcPauseMs       float64
	allocMB         float64
	stealStart      cpuTicks
	stealPct        float64 // share of CPU time the hypervisor withheld during the timed region

	attempted, failed int
	failures          []string
	ref               map[string]counts // in-process repeat reference
}

func newBench(cfg config) (*bench, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.scale <= 0 || cfg.scale > 1 {
		return nil, fmt.Errorf("scale %v outside (0, 1]", cfg.scale)
	}
	sp.rows = max(int(float64(sp.rows)*cfg.scale), 1000)
	sp.chunkRows = int(float64(sp.chunkRows) * cfg.scale)
	if sp.cycleRounds > 0 {
		sp.cycleRounds = max(int(float64(sp.cycleRounds)*cfg.scale), len(sp.queries))
	}
	b := &bench{cfg: cfg, spec: sp, oracleMs: map[string][]float64{},
		k1: map[string]float64{}, ref: map[string]counts{}}
	if cfg.trace {
		b.tr = &tracer{t0: time.Now(), on: true}
	}
	return b, nil
}

// op records one operation's outcome; a non-nil error is a failure.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.failures = append(b.failures, what+": "+err.Error())
	}
}

func (b *bench) dataSeed(i int) uint64 { return splitmix64(b.cfg.seed + uint64(i)*0x51ED) }

// querySeed derives Options.Seed for one query and variant from the
// workload seed.
func (b *bench) querySeed(name string, variant int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return splitmix64(b.cfg.seed^h.Sum64()+uint64(variant)) | 1
}

func suiteSQL(name string) string {
	q, ok := workload.ByName(name)
	if !ok {
		panic("perfbench: unknown suite query " + name)
	}
	return q.SQL
}

// setup generates and loads the fact tables of every dataset (and, for
// explore-ingest, every append chunk) and builds their columnar
// encodings, setupReps times; the last set-up is kept.
func (b *bench) setup() {
	for i := 0; i < setupReps; i++ {
		b.data, b.base, b.chunks = nil, nil, nil
		runtime.GC()
		sp := b.tr.begin("setup", 0, 0)
		t := time.Now()
		g := b.tr.begin("workload.Gen", sp, 0)
		b.generate()
		b.tr.end(g)
		gen := time.Since(t)
		var colBytes int64
		for _, ds := range b.data {
			for _, name := range ds.cat.Names() {
				tbl, _ := ds.cat.Get(name)
				c := b.tr.begin("storage.Table.Columnar", sp, 0)
				tbl.Columnar()
				b.tr.end(c)
				colBytes += tbl.ColumnarBytes()
			}
		}
		total := time.Since(t)
		b.tr.end(sp)
		b.reps = append(b.reps, setupRep{genMs: ms(gen), buildMs: ms(total - gen), totalS: total.Seconds()})
		b.colMB = float64(colBytes) / 1e6
	}
}

func (b *bench) generate() {
	s := b.spec
	for i := 0; i < s.datasets; i++ {
		var cat *storage.Catalog
		if s.dataset == "tpch" {
			cat = workload.TPCHCatalog(s.rows, s.rows/150+10, b.dataSeed(i))
		} else {
			cat = workload.ConvivaCatalog(s.rows, b.dataSeed(i))
		}
		b.data = append(b.data, &dataset{cat: cat})
	}
	if s.chunks == 0 {
		return
	}
	tbl, _ := b.data[0].cat.Get("sessions")
	b.base = tbl.Rows()[:tbl.NumRows():tbl.NumRows()]
	for i := 0; i < s.chunks; i++ {
		b.chunks = append(b.chunks, workload.GenSessions(s.chunkRows, b.dataSeed(i+1)).Rows())
	}
}

// buildOracles evaluates every query exactly with exec.Run (through
// audit.NewOracle) over every dataset: the oracle is the benchmark's
// check, not part of what it times. Untraced runs build GOMAXPROCS at a
// time; the traced run builds one at a time, so that exec.oracle_ms
// times each exec.Run without another sharing the CPU.
func (b *bench) buildOracles() {
	type job struct {
		ds         *dataset
		name       string
		o          *audit.Oracle
		start, end time.Time
		err        error
	}
	var jobs []*job
	for _, ds := range b.data {
		ds.oracles = map[string]*audit.Oracle{}
		for _, name := range b.spec.queries {
			jobs = append(jobs, &job{ds: ds, name: name})
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if b.tr != nil {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			j.start = time.Now()
			q, err := plan.Compile(suiteSQL(j.name), j.ds.cat)
			if err == nil {
				j.o, err = audit.NewOracle(q, j.ds.cat)
			}
			j.end, j.err = time.Now(), err
		}(j)
	}
	wg.Wait()
	for _, j := range jobs {
		b.tr.record("exec.Run", b.tr.newRun(), j.start, j.end)
		b.oracleMs[j.name] = append(b.oracleMs[j.name], ms(j.end.Sub(j.start)))
		if j.err != nil {
			b.op("oracle "+j.name, j.err)
			continue
		}
		j.ds.oracles[j.name] = j.o
	}
}

func (b *bench) datasetFor(variant int) *dataset { return b.data[variant%len(b.data)] }

// runQuery executes one suite query through the public engine calls.
func (b *bench) runQuery(name string, variant int, o runOpts) (*execResult, error) {
	tr := b.tr
	ds := b.datasetFor(variant)
	r := &execResult{query: name, variant: variant, traced: tr != nil && tr.on}
	qs := tr.begin("query:"+name, o.parent, o.run)
	defer tr.end(qs)

	sp := tr.begin("plan.Compile", qs, o.run)
	t := time.Now()
	q, err := plan.Compile(suiteSQL(name), ds.cat)
	r.compileMs = ms(time.Since(t))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sp = tr.begin("core.New", qs, o.run)
	t = time.Now()
	eng, err := core.New(q, ds.cat, core.Options{Batches: o.batches, Seed: b.querySeed(name, variant)})
	r.newMs = ms(time.Since(t))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	r.confidence = eng.Options().Confidence
	oracle := ds.oracles[name]
	clock := r.compileMs + r.newMs
	mid := (o.batches + 1) / 2
	target := targetRSD
	if o.stopRSD > 0 {
		target = o.stopRSD
	}
	var trail []rsdPoint
	prevRecomputes := 0
	for !eng.Done() {
		sp = tr.begin("core.Engine.Step", qs, o.run)
		t = time.Now()
		snap, err := eng.Step()
		d := ms(time.Since(t))
		tr.end(sp)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("step %d: %w", len(r.stepMs)+1, err)
		}
		tr.stepCounters(sp, d, snap)
		clock += d
		r.stepMs = append(r.stepMs, d)
		if snap.Recomputes > prevRecomputes {
			r.recomputeStepMs = append(r.recomputeStepMs, d)
		}
		prevRecomputes = snap.Recomputes
		ph := nonFoldMs(snap)
		for i := range ph {
			r.nonFold[i] += ph[i]
		}
		r.nonFoldOnce += nonFoldOnceMs(ph)
		if len(r.stepMs) == 1 {
			r.firstMs = clock
		}
		rsd := snap.RSD()
		trail = append(trail, rsdPoint{clock, rsd, snap.Batch})
		r.uncertainSum += snap.UncertainRows
		r.counts.UncertainMax = max(r.counts.UncertainMax, snap.UncertainRows)
		r.final = snap
		b.sampleHeap()
		if o.check && oracle != nil {
			tp := oracle.Compare(snap)
			r.ciCells += tp.CICells
			r.ciMissed += tp.CICells - tp.Covered
			r.violations += len(eng.AuditInvariants())
			if snap.Batch == mid || eng.Done() {
				r.liveMB = math.Max(r.liveMB, liveHeapMB(1))
			}
		}
		if o.stopRSD > 0 && rsd <= o.stopRSD {
			break
		}
	}
	r.completeMs = clock
	r.toTargetMs, r.counts.BatchesToTarget = settle(trail, target)
	if !o.check {
		r.violations += len(eng.AuditInvariants())
	}
	m := eng.Metrics()
	r.counts.RowsProcessed = m.RowsProcessed
	r.counts.Recomputes = m.Recomputes
	r.counts.DetFlips = m.DetFlips
	r.detFolds = m.DeterministicFolds
	r.evictions = m.UncertainEvictions + m.BudgetEvictions
	r.memPeak = m.MemPeakBytes

	sp = tr.begin("core.Engine.Close", qs, o.run)
	t = time.Now()
	eng.Close()
	r.closeMs = ms(time.Since(t))
	tr.end(sp)
	if r.violations > 0 {
		return r, fmt.Errorf("%d deterministic-set invariant violations", r.violations)
	}
	return r, nil
}

type rsdPoint struct {
	ms    float64 // engine time at the snapshot
	rsd   float64
	batch int
}

// settle returns when a query's RSD reached target for good: the time,
// interpolated linearly between the last snapshot above the target and
// the next, and the batch of that next snapshot. An early snapshot
// whose RSD estimate dips below the target and rises again does not
// count, and interpolation keeps the time from jumping by a whole
// batch when the RSD at a batch boundary moves across the target by a
// hair. A run whose last snapshot is above the target settles at its
// end, at the time to completion.
func settle(trail []rsdPoint, target float64) (float64, int) {
	last := len(trail) - 1
	i := last
	for i >= 0 && trail[i].rsd <= target {
		i--
	}
	switch {
	case i < 0:
		return trail[0].ms, trail[0].batch
	case i == last:
		return trail[last].ms, trail[last].batch
	}
	a, z := trail[i], trail[i+1]
	return a.ms + (z.ms-a.ms)*(a.rsd-target)/(a.rsd-z.rsd), z.batch
}

// checkFinal compares a completed execution's last snapshot with the
// exec.Run oracle: the same rows, and every audited value equal up to
// float rounding.
func (b *bench) checkFinal(r *execResult) error {
	o := b.datasetFor(r.variant).oracles[r.query]
	if o == nil {
		return fmt.Errorf("no oracle")
	}
	s := r.final
	if s.Batch != s.TotalBatches {
		return fmt.Errorf("stopped at batch %d of %d", s.Batch, s.TotalBatches)
	}
	tp := o.Compare(s)
	if tp.Unmatched != 0 || len(s.Rows) != o.Rows() {
		return fmt.Errorf("%d rows (%d unmatched), exec.Run has %d", len(s.Rows), tp.Unmatched, o.Rows())
	}
	if tp.MaxRelErr > finalRelErr {
		return fmt.Errorf("final relative error %.3g exceeds %.0g", tp.MaxRelErr, finalRelErr)
	}
	return nil
}

// repeat compares an execution's counts with the first execution that
// used the same key; any difference is a failure.
func (b *bench) repeat(key string, c counts) error {
	ref, ok := b.ref[key]
	if !ok {
		b.ref[key] = c
		return nil
	}
	if ref != c {
		return fmt.Errorf("deterministic counts differ between executions: %+v then %+v", ref, c)
	}
	return nil
}

// runChecked runs one query to completion, checks it against exec.Run
// and its counts against earlier executions of the same variant and k,
// and records the outcome as one operation.
func (b *bench) runChecked(label, name string, variant int, o runOpts) *execResult {
	r, err := b.runQuery(name, variant, o)
	if err == nil {
		err = b.checkFinal(r)
	}
	if err == nil {
		err = b.repeat(fmt.Sprintf("%s/%d/k%d", name, variant, o.batches), r.counts)
	}
	b.op(fmt.Sprintf("%s %s/%d", label, name, variant), err)
	if err != nil {
		return nil
	}
	return r
}

// checkPass runs every query once to completion as variant 0, untimed,
// auditing each snapshot: the warm-up of conviva-scan and tpch-nested,
// and the end check of explore-ingest on the grown table.
func (b *bench) checkPass() {
	b.checkBaseMB = liveHeapMB(2)
	for _, name := range b.spec.queries {
		if r := b.runChecked("check", name, 0, runOpts{batches: b.spec.batches, check: true, run: b.tr.newRun()}); r != nil {
			b.check = append(b.check, r)
		}
	}
}

// timedLoop is the closed loop of conviva-scan and tpch-nested. It
// visits the queries round-robin; each visit runs the query's next
// variant to completion. A query leaves the rotation once it has run
// minVariants variants and used its share, cfg.seconds / len(queries),
// of the loop's wall time, so a cheap query runs many variants and an
// expensive one few, and every query's median rests on several seeds.
// A traced run executes each variant twice, untraced and traced in
// alternating order, so it can report the tracing overhead.
func (b *bench) timedLoop() {
	qs := b.spec.queries
	budget := b.cfg.seconds / float64(len(qs))
	spent := make([]float64, len(qs))
	next := make([]int, len(qs))
	b.startRuntimeStats()
	for active := true; active; {
		active = false
		for i, name := range qs {
			if next[i] >= minVariants && spent[i] >= budget {
				continue
			}
			active = true
			v := next[i]
			next[i]++
			t := time.Now()
			modes := []bool{false}
			if b.tr != nil {
				modes = []bool{v%2 == 1, v%2 == 0}
			}
			for _, traced := range modes {
				b.setTraced(traced)
				if r := b.runChecked("timed", name, v, runOpts{batches: b.spec.batches, run: b.tr.newRun()}); r != nil {
					b.timed = append(b.timed, r)
				}
			}
			spent[i] += time.Since(t).Seconds()
		}
	}
	b.setTraced(true)
	b.stopRuntimeStats()
}

func (b *bench) setTraced(on bool) {
	if b.tr != nil {
		b.tr.on = on
	}
}

// resetIngest reloads the base rows into a fresh table and builds its
// columnar encoding, outside the rounds' timing. It then collects the
// old table, so that the collector does not mark the reset's garbage
// while the next cycle's rounds are timed: rounds that overlapped that
// collection ran 15–30% slower, and how many did varied from run to run.
func (b *bench) resetIngest() {
	tbl := storage.FromRows("sessions", workload.SessionsSchema(), b.base)
	cat := storage.NewCatalog()
	cat.Put(tbl)
	b.data[0] = &dataset{cat: cat}
	sp := b.tr.begin("storage.Table.Columnar", 0, 0)
	tbl.Columnar()
	b.tr.end(sp)
	runtime.GC()
}

// ingestRound appends the round's chunk, updates the columnar encoding
// and runs the next rotation query until RSD() ≤ stopRSD. Round i of a
// cycle runs query i mod len(queries) as the given variant. Its table
// depends only on i, so its counts must repeat wherever the variant
// repeats.
func (b *bench) ingestRound(i, variant int) (round, error) {
	s := b.spec
	rd := round{traced: b.tr != nil && b.tr.on}
	tbl, _ := b.data[0].cat.Get("sessions")
	run := b.tr.newRun()
	rs := b.tr.begin("round", 0, run)
	defer b.tr.end(rs)
	sp := b.tr.begin("storage.Table.AppendAll", rs, run)
	t := time.Now()
	err := tbl.AppendAll(b.chunks[i%len(b.chunks)])
	rd.appendMs = ms(time.Since(t))
	b.tr.end(sp)
	if err != nil {
		return rd, fmt.Errorf("append: %w", err)
	}
	sp = b.tr.begin("storage.Table.Columnar", rs, run)
	t = time.Now()
	tbl.Columnar()
	rd.updateMs = ms(time.Since(t))
	b.tr.end(sp)
	name := s.queries[i%len(s.queries)]
	rd.exec, err = b.runQuery(name, variant, runOpts{batches: s.batches, stopRSD: s.stopRSD, parent: rs, run: run})
	if err != nil {
		return rd, fmt.Errorf("%s: %w", name, err)
	}
	return rd, b.repeat(fmt.Sprintf("round %d/%d", i, variant), rd.exec.counts)
}

// ingest runs the warm-up rounds, then whole cycles of rounds, each on a
// freshly reset table, until cfg.seconds have passed; the table is left
// grown by one full cycle for the end check.
//
// Cycles run in pairs: both cycles of a pair run the same variants (in
// the traced run, one untraced and one traced), so their counts must
// repeat, and each pair runs new variants. A query stops after one, two
// or three steps depending on its data and Options.Seed; if every cycle
// ran the same 25 variants per query, one seed's median could fall in
// the one-step cluster and another's in the two-step cluster. New
// variants per pair let each median rest on many more draws.
func (b *bench) ingest() {
	s := b.spec
	for i := 0; i < min(warmupRounds, s.cycleRounds); i++ {
		_, err := b.ingestRound(i, i)
		b.op(fmt.Sprintf("warm-up round %d", i), err)
	}
	minCycles := 2
	if b.tr != nil {
		minCycles = 4
	}
	b.startRuntimeStats()
	start := time.Now()
	for cycle := 0; cycle < minCycles || time.Since(start).Seconds() < b.cfg.seconds; cycle++ {
		b.resetIngest()
		b.setTraced(cycle%2 == 1)
		for i := 0; i < s.cycleRounds; i++ {
			rd, err := b.ingestRound(i, cycle/2*s.cycleRounds+i)
			if rd.exec != nil {
				b.rounds = append(b.rounds, rd)
			}
			b.op(fmt.Sprintf("round %d", i), err)
		}
	}
	b.setTraced(true)
	b.stopRuntimeStats()
}

// k1Pass runs each query once at Batches: 1, the batch-mode reference
// for online_overhead_x, and checks it against exec.Run.
func (b *bench) k1Pass() {
	for _, name := range b.spec.queries {
		if r := b.runChecked("k=1", name, 0, runOpts{batches: 1, run: b.tr.newRun()}); r != nil {
			b.k1[name] = r.completeMs
		}
	}
}

// readMB reads one runtime/metrics byte count in MB.
func readMB(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// liveHeapMB collects garbage and returns the live heap: the smallest
// of readings, each taken after one more collection. A first collection
// moves what sync.Pools hold into their victim caches, which stay live
// until the next one, so it is not read; how much the pools hold
// depends on how the engine's workers were scheduled. Now and then a
// collection leaves 0.2–0.5 MB more live than the next, up to a sixth
// of an explore-ingest query's heap. The base that every reading is
// compared with takes two readings; each further collection of
// explore-ingest's 1 GB heap costs most of a second.
func liveHeapMB(readings int) float64 {
	runtime.GC()
	lo := math.Inf(1)
	for i := 0; i < readings; i++ {
		runtime.GC()
		lo = math.Min(lo, readMB("/gc/heap/live:bytes"))
	}
	return lo
}

// sampleHeap tracks the heap in use (live and not yet collected
// objects) during the timed region.
func (b *bench) sampleHeap() {
	if b.timing {
		b.timedHeapPeakMB = math.Max(b.timedHeapPeakMB, readMB("/memory/classes/heap/objects:bytes"))
	}
}

func (b *bench) startRuntimeStats() {
	b.timedBaseMB = liveHeapMB(1)
	runtime.ReadMemStats(&b.memStart)
	b.stealStart = readCPUTicks()
	b.timing = true
}

func (b *bench) stopRuntimeStats() {
	b.timing = false
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.gcCycles = m.NumGC - b.memStart.NumGC
	b.gcPauseMs = float64(m.PauseTotalNs-b.memStart.PauseTotalNs) / 1e6
	b.allocMB = float64(m.TotalAlloc-b.memStart.TotalAlloc) / 1e6
	end := readCPUTicks()
	b.stealPct = pct(float64(end.steal-b.stealStart.steal), float64(end.total-b.stealStart.total))
}

type cpuTicks struct{ steal, total uint64 }

// readCPUTicks reads the machine-wide CPU time counters of
// /proc/stat; zero where the platform has none. Steal time, when a
// virtual machine's host runs other guests on its CPUs, slows a run
// without any change to the program, so it is recorded with the result.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}
