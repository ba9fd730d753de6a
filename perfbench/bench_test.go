package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluodb/internal/audit"
	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
	"fluodb/internal/workload"
)

// smokeScale shrinks every workload to about 1% of its rows so that the
// three workloads, traced and untraced, run in seconds.
const smokeScale = 0.01

func smokeConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 0.2, trace: trace,
		scale: smokeScale, out: t.TempDir()}
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeMetricsMatchBenchmarkJSON runs every workload at reduced
// scale, untraced and traced, and untraced on a second seed. Each run
// must pass its checks and print exactly the metrics BENCHMARK.json
// declares, with the declared units.
func TestSmokeMetricsMatchBenchmarkJSON(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	for _, sp := range specs {
		for _, seed := range []uint64{1, 2} {
			for _, trace := range []bool{false, true} {
				if trace && seed != 1 {
					continue
				}
				_, res, err := run(smokeConfig(t, sp.name, seed, trace))
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", sp.name, seed, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d",
						sp.name, seed, trace, res.Correct, res.Attempted, res.Failed)
				}
				declared := bf.EndToEnd
				if trace {
					declared = bf.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%s trace %v: %d metrics printed, BENCHMARK.json declares %d",
						sp.name, trace, len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("%s trace %v: metric %s not printed", sp.name, trace, d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("%s trace %v: %s printed in %q, declared in %q", sp.name, trace, d.Name, m.Unit, d.Unit)
					}
				}
			}
		}
	}
}

// TestPerturbedOracleCountsAsFailure changes one play_time value in the
// data behind the SBI oracle; the engine's exact answer then differs
// from the oracle, and the check pass must count a failure.
func TestPerturbedOracleCountsAsFailure(t *testing.T) {
	b, err := newBench(smokeConfig(t, "conviva-scan", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	b.setup()
	b.buildOracles()
	tbl, _ := b.data[0].cat.Get("sessions")
	schema := tbl.Schema()
	buf, play := schema.ColumnIndex("buffer_time"), schema.ColumnIndex("play_time")
	rows := append([]types.Row(nil), tbl.Rows()...)
	top, topBuf := 0, -1.0 // the most-buffered session is certainly above average
	for i, r := range rows {
		if x, _ := r[buf].AsFloat(); x > topBuf {
			top, topBuf = i, x
		}
	}
	perturbed := append(types.Row(nil), rows[top]...)
	v, _ := perturbed[play].AsFloat()
	perturbed[play] = types.NewFloat(v + 1)
	rows[top] = perturbed
	cat := storage.NewCatalog()
	cat.Put(storage.FromRows("sessions", workload.SessionsSchema(), rows))
	q, err := plan.Compile(suiteSQL("SBI"), cat)
	if err != nil {
		t.Fatal(err)
	}
	if b.data[0].oracles["SBI"], err = audit.NewOracle(q, cat); err != nil {
		t.Fatal(err)
	}

	b.checkPass()
	if b.failed != 1 {
		t.Fatalf("failed = %d after perturbing the SBI oracle, want 1 (failures: %v)", b.failed, b.failures)
	}
	if !strings.HasPrefix(b.failures[0], "check SBI/") {
		t.Fatalf("failure %q does not name the SBI check", b.failures[0])
	}
}

// TestRepeatCheckCatchesChangedCounts reruns a workload at the same
// seed after altering the counts an earlier run recorded; the rerun
// must report the difference as a failure.
func TestRepeatCheckCatchesChangedCounts(t *testing.T) {
	cfg := smokeConfig(t, "conviva-scan", 3, false)
	if _, res, err := run(cfg); err != nil || !res.Correct {
		t.Fatalf("first run: err=%v result=%+v", err, res)
	}
	if _, res, err := run(cfg); err != nil || !res.Correct {
		t.Fatalf("second run at the same seed: err=%v result=%+v", err, res)
	}
	paths, _ := filepath.Glob(filepath.Join(cfg.out, "counts-*.json"))
	if len(paths) != 1 {
		t.Fatalf("want one counts file, found %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	altered := strings.Replace(string(data), `"recomputes":`, `"recomputes":1`, 1)
	if err := os.WriteFile(paths[0], []byte(altered), 0o644); err != nil {
		t.Fatal(err)
	}
	_, res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("altered counts: correct=%v failed=%d, want one failure", res.Correct, res.Failed)
	}
}

// TestStepSpanCheckCatchesPhasesBeyondWall gives a Step span non-fold
// phases longer than its wall time; the span check must flag it, and
// must pass a Step whose replay overlaps its uncertain and ranges time.
func TestStepSpanCheckCatchesPhasesBeyondWall(t *testing.T) {
	step := func(wall float64, ph [4]float64) *span {
		return &span{ID: 1, Name: "core.Engine.Step", EndNs: int64(wall * 1e6), Counters: map[string]float64{
			"nonfold_ms": nonFoldOnceMs(ph), "fold_other_ms": wall - nonFoldOnceMs(ph), "wall_ms": wall}}
	}
	// Uncertain and ranges re-accrued inside a 6 ms replay: 7 ms counted once.
	if bad := checkStepSpan(step(8, [4]float64{3, 2, 6, 1})); len(bad) != 0 {
		t.Fatalf("overlapping replay flagged: %v", bad)
	}
	if bad := checkStepSpan(step(6, [4]float64{3, 2, 6, 1})); len(bad) != 1 {
		t.Fatalf("phases beyond the wall time: %d messages, want 1 (%v)", len(bad), bad)
	}
}
