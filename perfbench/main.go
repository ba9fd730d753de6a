// Command perfbench is FluoDB's end-to-end benchmark: closed-loop
// workloads over the paper's §5 query suite, driven through the public
// engine calls (plan.Compile, core.New, Engine.Step, Engine.Close,
// storage.Table.AppendAll, storage.Table.Columnar), with every completed
// answer checked against exec.Run.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload conviva-scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 is the traced run, which reports the
// per-layer metrics and writes its spans to
// <out>/spans-<workload>-<seed>.json. The line before it holds the
// run's provenance. The command exits 1 when any check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{scale: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: conviva-scan, tpch-nested or explore-ingest")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; derives the data and Options.Seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed region")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and repeat-check files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	prov, res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, f := range prov.Failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	p, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(p))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation.
func run(cfg config) (provenance, *result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return provenance{}, nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return provenance{}, nil, fmt.Errorf("create output directory: %w", err)
	}
	b.setup()
	if b.spec.chunks > 0 {
		// explore-ingest times its rounds first, then checks every query
		// to completion on the grown table.
		b.ingest()
		b.buildOracles()
		b.checkPass()
	} else {
		b.buildOracles()
		b.checkPass()
		b.timedLoop()
	}
	if cfg.trace {
		b.k1Pass()
	}
	b.op("repeat across runs", b.repeatAcrossRuns())
	if b.tr != nil {
		for _, msg := range b.tr.finish() {
			b.op("span check", fmt.Errorf("%s", msg))
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		b.op("write spans", b.tr.write(path, b.provenance()))
	}
	prov := b.provenance()
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if cfg.trace {
		res.Metrics = b.perLayer()
	} else {
		res.Metrics = b.endToEnd()
	}
	return prov, res, nil
}

// repeatAcrossRuns compares this run's deterministic counts and ci_gap
// with those an earlier run of the same build recorded at the same seed,
// size and GOMAXPROCS, and records them when no earlier run did. The
// build is identified by a hash of the running executable, so a changed
// engine that legitimately changes a count starts its own record.
func (b *bench) repeatAcrossRuns() error {
	type record struct {
		Queries map[string]counts `json:"queries"`
		CIGap   float64           `json:"ci_gap"`
	}
	cur := record{Queries: map[string]counts{}, CIGap: b.ciGap()}
	for _, r := range b.check {
		cur.Queries[r.query] = r.counts
	}
	data, err := json.Marshal(cur)
	if err != nil {
		return fmt.Errorf("encode counts: %w", err)
	}
	build, err := buildID()
	if err != nil {
		return fmt.Errorf("identify build: %w", err)
	}
	path := filepath.Join(b.cfg.out, fmt.Sprintf("counts-%s-seed%d-rows%d-procs%d-%s.json",
		b.spec.name, b.cfg.seed, b.spec.rows, runtime.GOMAXPROCS(0), build))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return fmt.Errorf("record counts: %w", err)
		}
		return os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("read counts: %w", err)
	}
	if string(prev) != string(data) {
		return fmt.Errorf("deterministic counts differ from an earlier run at this seed:\n  before %s\n  now    %s", prev, data)
	}
	return nil
}

// buildID returns the first 16 hex digits of the SHA-256 of the running
// executable.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ciGap is the mean over the check pass's queries of |share of CI cells
// missing the exact value − (1 − Confidence)|.
func (b *bench) ciGap() float64 {
	var sum float64
	var n int
	for _, r := range b.check {
		if r.ciCells == 0 {
			continue
		}
		miss := float64(r.ciMissed) / float64(r.ciCells)
		d := miss - (1 - r.confidence)
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// provenance is recorded with every result.
type provenance struct {
	Workload      string            `json:"workload"`
	Seed          uint64            `json:"seed"`
	Traced        bool              `json:"traced"`
	NumCPU        int               `json:"nproc"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	GoVersion     string            `json:"go_version"`
	CPUModel      string            `json:"cpu_model"`
	Rows          map[string]int    `json:"rows"`
	Batches       int               `json:"k"`
	Queries       []string          `json:"queries"`
	StopRSD       float64           `json:"stop_rsd,omitempty"`
	Warmup        string            `json:"warmup"`
	SetupReps     int               `json:"setup_reps"`
	Spread        map[string]spread `json:"complete_ms_spread,omitempty"`
	TailPct       float64           `json:"refresh_tail_percentile"`
	TailSamples   int               `json:"refresh_samples_min_per_query"`
	TailBeyond    int               `json:"refresh_samples_beyond_tail_min_per_query"`
	StealPct      float64           `json:"cpu_steal_pct_timed"`
	Failures      []string          `json:"failures,omitempty"`
	SecondsTarget float64           `json:"seconds"`
}

type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func (b *bench) provenance() provenance {
	s := b.spec
	p := provenance{
		Workload: s.name, Seed: b.cfg.seed, Traced: b.cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		Rows: map[string]int{}, Batches: s.batches, Queries: s.queries, StopRSD: s.stopRSD,
		SetupReps: len(b.reps), Spread: map[string]spread{},
		StealPct: b.stealPct, Failures: b.failures, SecondsTarget: b.cfg.seconds,
	}
	if len(b.data) > 0 {
		for _, name := range b.data[0].cat.Names() {
			t, _ := b.data[0].cat.Get(name)
			p.Rows[name] = t.NumRows()
		}
	}
	p.Rows["datasets"] = s.datasets
	if s.chunks > 0 {
		p.Rows["sessions_base"] = len(b.base)
		p.Rows["chunk"] = s.chunkRows
		p.Rows["rounds_per_cycle"] = s.cycleRounds
		p.Warmup = fmt.Sprintf("%d untimed rounds, then whole cycles of %d rounds from a freshly loaded and collected base table, "+
			"each pair of cycles with new variants; the check pass runs each query to completion on the table grown by one cycle", warmupRounds, s.cycleRounds)
	} else {
		p.Warmup = fmt.Sprintf("one untimed pass over the queries as variant 0 (also the audited check pass); "+
			"then each query runs successive variants, round-robin, until it has run %d and used %.3g s", minVariants, b.cfg.seconds/float64(len(s.queries)))
	}
	pq := newPerQuery()
	for _, r := range b.timedExecs(false) {
		pq.add(r.query, r.completeMs)
	}
	for _, q := range pq.order {
		v := pq.vals[q]
		sp := spread{N: len(v), Median: median(v), Min: v[0], Max: v[0]}
		for _, x := range v {
			sp.Min, sp.Max = min(sp.Min, x), max(sp.Max, x)
		}
		p.Spread[q] = sp
	}
	_, _, p.TailPct, p.TailBeyond = b.refresh(false)
	steps := b.stepSamples(false)
	for _, q := range steps.order {
		if n := len(steps.vals[q]); p.TailSamples == 0 || n < p.TailSamples {
			p.TailSamples = n
		}
	}
	return p
}

// cpuModel reads the processor name, or "unknown" where the platform
// does not expose /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
