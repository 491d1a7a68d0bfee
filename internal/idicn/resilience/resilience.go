// Package resilience provides the failure-handling building blocks shared by
// the idICN components: retry with per-attempt timeouts and capped
// exponential backoff under deterministic jitter, hedged requests across
// replicas, and a circuit breaker that stops hammering a dead dependency.
//
// Everything is stdlib-only, allocation-light, and deterministic given a
// seed, so chaos tests reproduce exactly. Clocks and sleeps are injectable
// for tests.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Policy is a retry schedule: up to MaxAttempts tries, each bounded by
// AttemptTimeout, separated by capped exponential backoff with deterministic
// "equal jitter" (half fixed, half seeded-random). The zero value is usable:
// 3 attempts, 10ms base, 1s cap, no per-attempt timeout.
type Policy struct {
	// MaxAttempts bounds the total tries (not retries); <= 0 means 3.
	MaxAttempts int
	// BaseDelay seeds the exponential ladder (doubling per attempt);
	// <= 0 means 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the ladder; <= 0 means 1s.
	MaxDelay time.Duration
	// AttemptTimeout bounds each attempt's context; 0 leaves the parent
	// deadline in charge.
	AttemptTimeout time.Duration
	// Seed drives the jitter; the same seed yields the same delay sequence.
	Seed int64
	// Sleep replaces the interruptible wait between attempts, for tests.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

func (p Policy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 10 * time.Millisecond
	}
	return p.BaseDelay
}

func (p Policy) cap() time.Duration {
	if p.MaxDelay <= 0 {
		return time.Second
	}
	return p.MaxDelay
}

// Backoff returns the capped exponential delay before attempt (1-based
// retries: attempt 0 is the first try, so Backoff(0) is the wait before the
// first retry), jittered by rng when non-nil: delay/2 fixed plus up to
// delay/2 random.
func (p Policy) Backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.base() << uint(attempt)
	if max := p.cap(); d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	if rng == nil {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops retrying and returns it immediately —
// for failures more tries cannot fix (verification failures, 404s).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

// Do runs fn under the policy: each attempt gets a context bounded by
// AttemptTimeout, failures back off exponentially with deterministic jitter,
// and the last error is returned when attempts are exhausted or the parent
// context dies. Errors wrapped with Permanent abort the retry loop.
func (p Policy) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	// The jitter source is seeded only before the first retry: a
	// first-attempt success, the common case, builds no 4.9 KB rand table.
	var rng *rand.Rand
	var lastErr error
	for attempt := 0; attempt < p.attempts(); attempt++ {
		if attempt > 0 {
			// A retry is pointless when the request's attempt budget is spent:
			// the layer below (hedging, or the next fn call) could not issue
			// another upstream call anyway.
			if bud := BudgetFrom(ctx); bud != nil && bud.Remaining() <= 0 {
				return lastErr
			}
			if rng == nil {
				rng = rand.New(rand.NewSource(p.Seed))
			}
			if err := sleep(ctx, p.Backoff(attempt-1, rng)); err != nil {
				return lastErr
			}
		}
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		actx, cancel := ctx, context.CancelFunc(nil)
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := fn(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if IsPermanent(err) {
			var pe permanentError
			errors.As(err, &pe)
			return pe.err
		}
	}
	return lastErr
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Hedge runs fn against n replicas, starting replica 0 immediately and each
// subsequent replica after another hedgeDelay unless a result already
// arrived — the classic tail-latency hedge, here doubling as resolver
// failover. The first success wins and cancels the rest; if every replica
// fails, the last error is returned. n must be >= 1.
//
// Every launched replica consumes one unit from the context's attempt
// Budget (when one is set); once the budget is spent no further replicas
// start, and if even the first replica cannot start, ErrBudgetExhausted is
// returned.
func Hedge[T any](ctx context.Context, n int, hedgeDelay time.Duration, fn func(ctx context.Context, replica int) (T, error)) (T, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		v   T
		err error
	}
	results := make(chan outcome, n)
	bud := BudgetFrom(ctx)
	launched := 0
	exhausted := false
	// tryLaunch starts the next replica if one remains and the budget
	// allows, reporting whether a launch happened. Budget exhaustion is
	// terminal: once Take fails, no later call can succeed.
	tryLaunch := func() bool {
		if launched >= n || exhausted {
			return false
		}
		if bud != nil && !bud.Take() {
			exhausted = true
			return false
		}
		i := launched
		launched++
		go func() {
			v, err := fn(hctx, i)
			results <- outcome{v, err}
		}()
		return true
	}

	var zero T
	if !tryLaunch() {
		return zero, ErrBudgetExhausted
	}

	var timer *time.Timer
	var tick <-chan time.Time
	if n > 1 {
		timer = time.NewTimer(hedgeDelay)
		defer timer.Stop()
		tick = timer.C
	}

	var lastErr error
	failed := 0
	for {
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return zero, lastErr
			}
			return zero, ctx.Err()
		case <-tick:
			tryLaunch()
			if launched < n && !exhausted {
				timer.Reset(hedgeDelay)
			} else {
				tick = nil
			}
		case out := <-results:
			if out.err == nil {
				return out.v, nil
			}
			lastErr = out.err
			failed++
			// A failure is a stronger signal than a slow response: hedge
			// immediately instead of waiting out the timer.
			tryLaunch()
			if failed == launched {
				// Nothing in flight and nothing more can start.
				return zero, lastErr
			}
			if launched == n || exhausted {
				tick = nil
			}
		}
	}
}

// Breaker is a circuit breaker: Threshold consecutive failures open it, and
// while open Allow reports false so callers skip the dependency entirely
// (and fall back to degraded modes) instead of stacking timeouts on a dead
// component. After Cooldown one probe is allowed through (half-open); its
// outcome closes or re-opens the circuit. The zero value is usable:
// threshold 5, cooldown 1s, wall clock.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the circuit;
	// <= 0 means 5.
	Threshold int
	// Cooldown is how long the circuit stays open before allowing a probe;
	// <= 0 means 1s.
	Cooldown time.Duration
	// Clock overrides time.Now, for tests.
	Clock func() time.Time

	mu sync.Mutex
	//icn:guardedby mu
	fails int
	//icn:guardedby mu
	openedAt time.Time
	//icn:guardedby mu
	open bool
	//icn:guardedby mu
	probing bool
}

func (b *Breaker) now() time.Time {
	if b.Clock != nil {
		return b.Clock()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold <= 0 {
		return 5
	}
	return b.Threshold
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown <= 0 {
		return time.Second
	}
	return b.Cooldown
}

// Allow reports whether a call may proceed. While open it returns false
// until Cooldown has elapsed, then admits exactly one probe; the probe's
// Record decides what happens next.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing {
		return false
	}
	if b.now().Sub(b.openedAt) >= b.cooldown() {
		b.probing = true // half-open: one probe in flight
		return true
	}
	return false
}

// Record feeds a call outcome into the breaker. Success closes the circuit
// and resets the failure count; failure counts toward Threshold and re-opens
// a half-open circuit immediately.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.fails = 0
		b.open = false
		b.probing = false
		return
	}
	b.fails++
	if b.open || b.fails >= b.threshold() {
		b.open = true
		b.probing = false
		b.openedAt = b.now()
	}
}

// Open reports whether the circuit is currently open (possibly half-open
// awaiting a probe outcome).
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// Fails returns the current consecutive-failure count.
func (b *Breaker) Fails() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}
