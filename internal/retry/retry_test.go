package retry

import (
	"errors"
	"testing"
	"time"
)

// TestBackoffLadder pins the no-jitter ladder the serial-shard retry
// relies on: 0, base, 2·base, … capped.
func TestBackoffLadder(t *testing.T) {
	p := Policy{Attempts: 6, Base: time.Millisecond, Cap: 8 * time.Millisecond}
	want := []time.Duration{0, time.Millisecond, 2 * time.Millisecond,
		4 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Fatalf("attempt %d: backoff %v, want %v", i+1, got, w)
		}
	}
	if got := (Policy{Attempts: 3}).Backoff(3); got != 0 {
		t.Fatalf("zero Base must never sleep, got %v", got)
	}
}

// TestDo checks the attempt loop: stops on first success, returns the
// last error on exhaustion, resolves Attempts 0 to one try.
func TestDo(t *testing.T) {
	calls := 0
	err := Policy{Attempts: 5}.Do(func(attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		if attempt < 3 {
			return errors.New("not yet")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do: err=%v calls=%d, want nil/3", err, calls)
	}

	boom := errors.New("boom")
	calls = 0
	if err := (Policy{Attempts: 2}).Do(func(int) error { calls++; return boom }); !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("exhausted Do: err=%v calls=%d, want boom/2", err, calls)
	}

	calls = 0
	if err := (Policy{}).Do(func(int) error { calls++; return boom }); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("zero-value Do: err=%v calls=%d, want boom/1", err, calls)
	}
}
