// Package retry provides the small bounded-backoff policy behind the
// runtime's containment ladder: the serial redo of a failed parallel
// batch (core/parallel.go). The policy is deliberately tiny — attempts
// and a doubling backoff between a base and a cap — so a retried
// schedule sleeps the same intervals on every run.
package retry

import "time"

// Policy describes one bounded retry ladder.
type Policy struct {
	// Attempts is the total number of tries (≥1; 0 resolves to 1).
	Attempts int
	// Base is the sleep before the second attempt; each later attempt
	// doubles it up to Cap. Zero means no sleeping at all.
	Base time.Duration
	// Cap bounds the doubled backoff (0 = uncapped).
	Cap time.Duration
}

// attempts resolves the zero value.
func (p Policy) attempts() int {
	if p.Attempts <= 0 {
		return 1
	}
	return p.Attempts
}

// Backoff returns the sleep to take before the given 1-based attempt
// (attempt 1 never sleeps).
func (p Policy) Backoff(attempt int) time.Duration {
	if attempt <= 1 || p.Base <= 0 {
		return 0
	}
	d := p.Base
	for i := 2; i < attempt; i++ {
		d *= 2
		if p.Cap > 0 && d >= p.Cap {
			d = p.Cap
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	return d
}

// Do runs fn up to p.Attempts times, sleeping Backoff(attempt) before
// each retry, until fn returns nil. It returns the last error (nil on
// success). fn receives the 1-based attempt number.
func (p Policy) Do(fn func(attempt int) error) error {
	var err error
	for attempt := 1; attempt <= p.attempts(); attempt++ {
		if d := p.Backoff(attempt); d > 0 {
			time.Sleep(d)
		}
		if err = fn(attempt); err == nil {
			return nil
		}
	}
	return err
}
