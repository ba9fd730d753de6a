package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"fluodb/internal/core"
)

// span is one timed call from the benchmark into a layer. Spans of one
// query execution (or one explore-ingest round) share Run.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 for a root span
	Name     string             `json:"name"`
	Run      int                `json:"run"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	SelfNs   int64              `json:"self_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps the traced run's spans in memory until exit. A nil
// tracer, or one switched off between passes, records nothing, so the
// untraced passes pay only a nil check per call.
type tracer struct {
	t0    time.Time
	on    bool
	runs  int
	spans []span
}

func (t *tracer) begin(name string, parent, run int) int {
	if t == nil || !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent,
		Name: name, Run: run, StartNs: int64(time.Since(t.t0))})
	return len(t.spans)
}

// record adds a root span for a call timed elsewhere.
func (t *tracer) record(name string, run int, start, end time.Time) {
	if id := t.begin(name, 0, run); id != 0 {
		t.spans[id-1].StartNs = int64(start.Sub(t.t0))
		t.spans[id-1].EndNs = int64(end.Sub(t.t0))
	}
}

func (t *tracer) end(id int) {
	if id != 0 {
		t.spans[id-1].EndNs = int64(time.Since(t.t0))
	}
}

func (t *tracer) counter(id int, name string, v float64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	if s.Counters == nil {
		s.Counters = map[string]float64{}
	}
	s.Counters[name] = v
}

// newRun returns a fresh run id for the spans of one query execution.
func (t *tracer) newRun() int {
	if t == nil || !t.on {
		return 0
	}
	t.runs++
	return t.runs
}

// stepCounters attaches a Step's engine-reported phases and counts to
// its span. nonfold_ms counts the non-fold phases once (nonFoldOnceMs),
// and fold_other_ms is the rest of the Step's wall time: the join,
// fold, weights and classify work outside a recompute replay.
func (t *tracer) stepCounters(id int, wallMs float64, s *core.Snapshot) {
	if id == 0 {
		return
	}
	ph := nonFoldMs(s)
	t.counter(id, "uncertain_ms", ph[0])
	t.counter(id, "ranges_ms", ph[1])
	t.counter(id, "recompute_ms", ph[2])
	t.counter(id, "snapshot_ms", ph[3])
	t.counter(id, "nonfold_ms", nonFoldOnceMs(ph))
	t.counter(id, "fold_other_ms", wallMs-nonFoldOnceMs(ph))
	t.counter(id, "wall_ms", wallMs)
	t.counter(id, "batch", float64(s.Batch))
	t.counter(id, "uncertain_rows", float64(s.UncertainRows))
	t.counter(id, "recomputes", float64(s.Recomputes))
	t.counter(id, "rsd", s.RSD())
}

// nonFoldMs returns the Step phases the engine times without
// Options.Profile: uncertain, ranges, recompute and snapshot. A
// recompute replay re-accrues the uncertain and ranges phases inside
// the recompute phase, so these overlap on a Step with a recompute.
func nonFoldMs(s *core.Snapshot) [4]float64 {
	p := s.Phases
	return [4]float64{ms(p.Uncertain), ms(p.Ranges), ms(p.Recompute), ms(p.Snapshot)}
}

// nonFoldOnceMs is the Step time spent in the non-fold phases, each
// instant counted once: snapshot, plus the recompute replay (which
// includes the join and fold work it redoes) or the uncertain and
// ranges time, whichever is larger. The uncertain and ranges work of
// the failed first attempt precedes the replay but cannot be told apart
// from the replay's own, so on a Step with a recompute this is a lower
// bound; without one it is exact. All three are disjoint wall-clock
// intervals inside Step, so it never exceeds the Step's wall time.
func nonFoldOnceMs(ph [4]float64) float64 {
	return ph[3] + max(ph[0]+ph[1], ph[2])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// finish computes every span's self time (duration minus the union of
// its children's intervals) and returns one message per broken
// invariant: a child outside its parent, a negative self time, or a
// Step whose non-fold phases do not fit inside its wall time.
func (t *tracer) finish() []string {
	children := map[int][]int{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	var bad []string
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNs < t.spans[kids[b]].StartNs })
		var covered, reach int64
		reach = s.StartNs
		for _, k := range kids {
			c := t.spans[k]
			if c.StartNs < s.StartNs || c.EndNs > s.EndNs {
				bad = append(bad, fmt.Sprintf("span %d %s lies outside its parent %d %s", c.ID, c.Name, s.ID, s.Name))
			}
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
		if s.SelfNs < 0 {
			bad = append(bad, fmt.Sprintf("span %d %s has negative self time", s.ID, s.Name))
		}
		if s.Name == "core.Engine.Step" {
			bad = append(bad, checkStepSpan(s)...)
		}
	}
	return bad
}

// checkStepSpan asserts that the Step's timed wall fits inside its
// span and that fold_other_ms is not negative: the engine-reported
// non-fold phases, counted once, must fit inside the Step's wall time.
func checkStepSpan(s *span) []string {
	c := s.Counters
	wall := float64(s.EndNs-s.StartNs) / 1e6
	const tol = 1e-6 // ms
	var bad []string
	if c["fold_other_ms"] < -tol {
		bad = append(bad, fmt.Sprintf("step span %d: non-fold phases %.6f ms exceed the Step's wall %.6f ms", s.ID, c["nonfold_ms"], c["wall_ms"]))
	}
	if c["wall_ms"] > wall+tol {
		bad = append(bad, fmt.Sprintf("step span %d: timed wall %.6f ms exceeds span %.6f ms", s.ID, c["wall_ms"], wall))
	}
	return bad
}

// write exports the spans as one JSON document.
func (t *tracer) write(path string, prov provenance) error {
	doc := struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
