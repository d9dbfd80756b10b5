// Package faults is the shared fault-tolerance vocabulary of the stack:
// a transient/permanent error classification, a retry policy with capped
// full-jitter exponential backoff, and a deterministic fault injector
// (inject.go) the tests and QFW_FAULTS drive executions through. The package is a leaf — it imports only the standard library —
// so every layer (core, backends, ionq, prte, serve) can share one policy
// type without import cycles.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// ErrTransient marks failures worth retrying: the operation failed for a
// reason expected to clear on its own (a cloud 5xx, an MPI slot race, an
// injected flake), as opposed to a permanent condition (bad circuit,
// infeasible size, expired deadline) where a retry can only lose time.
var ErrTransient = errors.New("transient fault")

// Transient wraps an error as retryable. A nil error stays nil and an
// already-transient error is returned unchanged.
func Transient(err error) error {
	if err == nil || IsTransient(err) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrTransient, err)
}

// IsTransient detects ErrTransient even after the error has crossed an RPC
// boundary and been flattened to a string.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	return strings.Contains(err.Error(), ErrTransient.Error())
}

// Policy is a bounded retry loop with capped full-jitter exponential
// backoff. The zero value retries transient failures up to three attempts
// with millisecond-scale delays; MaxAttempts of 1 disables retrying.
type Policy struct {
	// MaxAttempts bounds the total tries including the first (default 3).
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry (default
	// 1ms); the ceiling doubles per attempt up to MaxDelay (default 50ms),
	// and the actual wait is uniform in [0, ceiling] (full jitter).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the jitter stream deterministic (default 1).
	Seed int64
	// Classify decides whether a failure is worth another attempt
	// (default IsTransient).
	Classify func(error) bool
	// Hint extracts a server-provided wait (e.g. an HTTP Retry-After)
	// from a retryable error; when it returns ok the backoff waits at
	// least that long.
	Hint func(error) (time.Duration, bool)
	// Sleep replaces time.Sleep (test hook).
	Sleep func(time.Duration)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Classify == nil {
		p.Classify = IsTransient
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// RetryStats summarizes one pass through the retry envelope: how many
// attempts ran (>= 1) and the total backoff slept between them. The
// timing instrumentation separates backoff from execution time with it.
type RetryStats struct {
	Attempts int
	Backoff  time.Duration
}

// Do runs op until it succeeds, fails permanently, or exhausts the
// attempt budget; op receives the zero-based attempt number. The error of
// the final attempt is returned unwrapped, so typed classification (e.g.
// core.IsDeadlineExceeded) still works on the result.
func (p Policy) Do(op func(attempt int) error) error {
	_, err := p.DoStats(op)
	return err
}

// DoStats is Do returning the attempt/backoff accounting alongside the
// final error. Backoff counts the delays handed to Sleep, so a stubbed
// Sleep (tests) still yields the schedule the policy computed.
func (p Policy) DoStats(op func(attempt int) error) (RetryStats, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	var stats RetryStats
	for attempt := 0; ; attempt++ {
		stats.Attempts++
		err := op(attempt)
		if err == nil {
			return stats, nil
		}
		if attempt+1 >= p.MaxAttempts || !p.Classify(err) {
			return stats, err
		}
		ceiling := p.BaseDelay << uint(attempt)
		if ceiling > p.MaxDelay || ceiling <= 0 {
			ceiling = p.MaxDelay
		}
		delay := time.Duration(rng.Int63n(int64(ceiling) + 1))
		if p.Hint != nil {
			if h, ok := p.Hint(err); ok && h > delay {
				delay = h
			}
		}
		stats.Backoff += delay
		p.Sleep(delay)
	}
}
