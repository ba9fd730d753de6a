package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fluodb/internal/expr"
	"fluodb/internal/plan"
	"fluodb/internal/testutil"
	"fluodb/internal/types"
)

// Every ErrorKind doubles as an errors.Is sentinel; QueryError must
// match its own kind (and only its own kind) anywhere in a wrap chain,
// and errors.As must recover the typed error through wrapping.
func TestErrorKindSentinels(t *testing.T) {
	kinds := []ErrorKind{
		ErrKindInvalidOptions,
		ErrKindWorkerPanic,
		ErrKindPoolStopped,
		ErrKindInterrupted,
		ErrKindCheckpoint,
	}
	for _, k := range kinds {
		qe := &QueryError{Kind: k, Batch: 3, Worker: 1, Note: "probe"}
		if !errors.Is(qe, k) {
			t.Errorf("errors.Is(%v, %q) = false", qe, k)
		}
		wrapped := fmt.Errorf("outer: %w", qe)
		if !errors.Is(wrapped, k) {
			t.Errorf("errors.Is through wrap failed for kind %q", k)
		}
		var got *QueryError
		if !errors.As(wrapped, &got) || got.Kind != k {
			t.Errorf("errors.As through wrap failed for kind %q", k)
		}
		for _, other := range kinds {
			if other != k && errors.Is(qe, other) {
				t.Errorf("kind %q wrongly matches sentinel %q", k, other)
			}
		}
	}
}

// TestErrorKindUnwrapChain checks that a QueryError carrying a cause
// keeps both matchable: the kind sentinel via Is, the cause via the
// standard Unwrap chain.
func TestErrorKindUnwrapChain(t *testing.T) {
	cause := errors.New("udf: boom")
	qe := &QueryError{Kind: ErrKindWorkerPanic, Batch: 1, Worker: 2, Err: cause}
	if !errors.Is(qe, ErrKindWorkerPanic) {
		t.Fatal("kind sentinel lost when Err is set")
	}
	if !errors.Is(qe, cause) {
		t.Fatal("cause not reachable through Unwrap")
	}
	if errors.Is(qe, ErrKindCheckpoint) {
		t.Fatal("wrong kind matched")
	}
}

// TestQueryErrorMessage pins the rendered text: one "core: " prefix,
// then the kind, the position, the note and the cause.
func TestQueryErrorMessage(t *testing.T) {
	cases := []struct {
		err  *QueryError
		want string
	}{
		{&QueryError{Kind: ErrKindWorkerPanic, Batch: 3, Worker: -1, Note: "controller panic: boom"},
			"core: worker-panic (batch 3): controller panic: boom"},
		{&QueryError{Kind: ErrKindWorkerPanic, Batch: 1, Worker: 2, Err: errors.New("udf: boom")},
			"core: worker-panic (batch 1, worker 2): udf: boom"},
		{queryErr(ErrKindInvalidOptions, "Trials = -1"),
			"core: invalid-options: Trials = -1"},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
	}
}

// TestErrPoolStoppedSentinel pins the exported variable's kind.
func TestErrPoolStoppedSentinel(t *testing.T) {
	if !errors.Is(ErrPoolStopped, ErrKindPoolStopped) {
		t.Fatal("ErrPoolStopped must match its kind sentinel")
	}
}

// TestFoldPanicTypedError drives the last rung of the fold's fault
// ladder with a real (not injected) panic: a UDF that panics on some
// rows of the first mini-batch. At P=1 the panic is raised on the
// controller goroutine; at P=4 it is raised on every pool worker and
// then again by each serial shard-plan retry. Both must surface as a
// typed worker-panic error, latched so the next Step returns the same
// error, and Close must leave no goroutine behind.
func TestFoldPanicTypedError(t *testing.T) {
	expr.RegisterFunc(&expr.ScalarFunc{
		Name: "FOLD_PANIC_ABOVE_990", MinArgs: 1, MaxArgs: 1,
		Eval: func(args []types.Value) types.Value {
			if x, _ := args[0].AsFloat(); x > 990 {
				panic("boom")
			}
			return args[0]
		},
	})
	const sql = `SELECT a, SUM(FOLD_PANIC_ABOVE_990(x)) FROM facts GROUP BY a`
	cat := determinismCatalog(3*8192, 5)
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			base := testutil.GoroutineBaseline()
			q, err := plan.Compile(sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			o := determinismOptions(5)
			o.Parallelism = p
			eng, err := New(q, cat, o)
			if err != nil {
				t.Fatal(err)
			}
			snap, serr := eng.Step()
			if snap != nil {
				t.Fatalf("failed step returned a snapshot: %+v", snap)
			}
			if !errors.Is(serr, ErrKindWorkerPanic) {
				t.Fatalf("Step error = %v, want kind %q", serr, ErrKindWorkerPanic)
			}
			if msg := serr.Error(); !strings.HasPrefix(msg, "core: worker-panic (batch 0)") ||
				!strings.Contains(msg, "boom") {
				t.Fatalf("Step error text = %q", msg)
			}
			if _, again := eng.Step(); again != serr {
				t.Fatalf("next Step = %v, want the latched %v", again, serr)
			}
			eng.Close()
			testutil.VerifyNoLeaks(t, base)
		})
	}
}
