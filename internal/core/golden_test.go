package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"fluodb/internal/plan"
	"fluodb/internal/storage"
	"fluodb/internal/types"
	"fluodb/internal/workload"
)

// goldenCase is one query whose whole snapshot trajectory is pinned.
type goldenCase struct {
	name string
	cat  func() *storage.Catalog
	sql  string
	opt  Options
	want string
}

func suiteSQL(name string) string {
	q, ok := workload.ByName(name)
	if !ok {
		panic("no suite query " + name)
	}
	return q.SQL
}

// goldenCases pins the paper's nested queries at a small scale plus the
// parameter edge cases of engine_test.go. The hashes were recorded
// before the snapshot layer was rebuilt row-major (DESIGN.md §18) and
// must never change: the rebuild is bit-identical by construction.
func goldenCases() []goldenCase {
	tpch := func() *storage.Catalog { return workload.TPCHCatalog(4000, 40, 12) }
	synth := func(seed uint64) func() *storage.Catalog {
		return func() *storage.Catalog { return synthCatalog(2000, 20, seed) }
	}
	opt := Options{Batches: 8, Trials: 30, Seed: 7, Parallelism: 1, BootstrapSampleCap: 1500}
	return []goldenCase{
		{name: "Q11", cat: tpch, sql: suiteSQL("Q11"), opt: opt,
			want: "2d028060f819d18a7b17677790560d06f88a3ce4bb0a5eba7385bf5f85cfb596"},
		{name: "Q17", cat: tpch, sql: suiteSQL("Q17"), opt: opt,
			want: "9114127c3c1205c360bff2e372f90ba079808d21338072789376f094e8c1ff76"},
		{name: "Q18", cat: tpch, sql: suiteSQL("Q18"), opt: opt,
			want: "2299f2f0ec90a58a67947d9d170b3de3c258166477adb2808582ad5a36afc6ae"},
		{name: "Q20", cat: tpch, sql: suiteSQL("Q20"), opt: opt,
			want: "719851189effb7cd2c4e7227e24ba591b7d5e3c047cfa76ee052e48136ce5818"},
		{name: "RepeatedSubquery", cat: synth(76), opt: opt,
			sql: `SELECT COUNT(*) FROM sessions
				WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)
				  AND play_time > (SELECT AVG(play_time) FROM sessions)`,
			want: "1b4034c6091c041e85182f0e4d0f4d8f0ce193c5164b393cbde87ee000514249"},
		{name: "ParamInsideCase", cat: synth(77), opt: opt,
			sql: `SELECT COUNT(*) FROM sessions
				WHERE CASE WHEN buffer_time > (SELECT AVG(buffer_time) FROM sessions)
					THEN play_time > 500 ELSE play_time > 700 END`,
			want: "94c44efb177c2c219498d731c638edfdf221472a7e73f9b362ee696b12891f1d"},
		{name: "NotIn", cat: synth(79), opt: opt,
			sql: `SELECT COUNT(*) FROM lineitem
				WHERE orderkey NOT IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 150)`,
			want: "86a0a70c391fe304bd2e09a5aaae7c84acd492803c79e3019fd93a83483a6289"},
		{name: "OrWithParam", cat: synth(80), opt: opt,
			sql: `SELECT COUNT(*) FROM sessions
				WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions) OR play_time > 900`,
			want: "f47a5f0ff977dbcfe488e98bb6975e5a47ba8e6b88d8bed9798a94de0b1f0001"},
		{name: "MixedParams", cat: synth(30), opt: opt,
			sql: `SELECT COUNT(*) FROM lineitem l
				WHERE quantity < (SELECT 0.8 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)
				  AND extendedprice > (SELECT AVG(extendedprice) FROM lineitem)`,
			want: "277a7d0e3fd3975f95800ce7e2042763f48c2a12efdeee693eab4f1621a58b23"},
		// A correlated param referenced twice in one predicate.
		{name: "GroupParamTwice", cat: synth(31), opt: opt,
			sql: `SELECT partkey, COUNT(*), SUM(extendedprice) FROM lineitem l
				WHERE quantity < (SELECT 0.8 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)
				   OR quantity > 1.1 * (SELECT 0.8 * AVG(quantity) FROM lineitem i WHERE i.partkey = l.partkey)
				GROUP BY partkey`,
			want: "549fc90d3b75605f61815be44ecd2cd5578f6b0047c2ff7785e94b8ed98ec2d8"},
		// Non-CLT aggregates: the root keeps generic replica states and the
		// set block's HAVING falls back to bootstrap ranges.
		{name: "MinMaxSet", cat: synth(32), opt: opt,
			sql: `SELECT partkey, MAX(extendedprice), COUNT(*) FROM lineitem
				WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING MAX(quantity) > 40)
				GROUP BY partkey`,
			want: "def1f86569efbd2ded328567e5861229baa571dbda81fdd9318369a83c92217a"},
		// ~270 output groups against a 4000-evaluation budget: the snapshot
		// computes CIs from about 14 of the 30 trials.
		{name: "BudgetThinned", cat: synth(33),
			opt: Options{Batches: 8, Trials: 30, Seed: 7, Parallelism: 1, BootstrapSampleCap: 1500, SnapshotEvalBudget: 4000},
			sql: `SELECT orderkey, SUM(quantity), AVG(extendedprice) FROM lineitem
				WHERE orderkey IN (SELECT orderkey FROM lineitem GROUP BY orderkey HAVING SUM(quantity) > 100)
				GROUP BY orderkey`,
			want: "3eb019dd5ad458dfbdb76293b3c8d484d16f9ee136611e52887c62fa715c2f45"},
	}
}

// hashValue feeds a value's kind and exact payload bits into h.
func hashValue(h hash.Hash, v types.Value) {
	var buf [9]byte
	buf[0] = byte(v.Kind())
	switch v.Kind() {
	case types.KindFloat:
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.Float()))
	case types.KindInt, types.KindBool:
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.Int()))
	case types.KindString:
		h.Write(buf[:1])
		h.Write([]byte(v.Str()))
		buf[0] = 0xff // terminator
		h.Write(buf[:1])
		return
	}
	h.Write(buf[:])
}

func hashFloat(h hash.Hash, f float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	h.Write(buf[:])
}

// trajectoryHash runs the query to completion and hashes every
// snapshot's cells: values, CI bounds and RSD as raw bit patterns.
func trajectoryHash(t *testing.T, gc goldenCase) (string, int) {
	t.Helper()
	cat := gc.cat()
	q, err := plan.Compile(gc.sql, cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	eng, err := New(q, cat, gc.opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := sha256.New()
	steps := 0
	for {
		s, err := eng.Step()
		if err == ErrDone {
			break
		}
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		steps++
		hashFloat(h, float64(len(s.Rows)))
		for _, row := range s.Rows {
			for _, c := range row {
				hashValue(h, c.Value)
				if c.HasCI {
					hashFloat(h, c.CI.Lo)
					hashFloat(h, c.CI.Hi)
					hashFloat(h, c.RSD)
				} else {
					h.Write([]byte{0})
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), steps
}

// TestGoldenTrajectoryHashes pins whole snapshot trajectories bit for
// bit: any change to how overlays, replica vectors or CIs are computed
// must reproduce every value, interval bound and RSD exactly.
func TestGoldenTrajectoryHashes(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			got, steps := trajectoryHash(t, gc)
			if steps == 0 {
				t.Fatal("no snapshots")
			}
			if got != gc.want {
				t.Errorf("trajectory hash = %s, want %s", got, gc.want)
			}
		})
	}
}
