package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func noSleep() (func(ctx context.Context, d time.Duration) error, *[]time.Duration) {
	var slept []time.Duration
	return func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}, &slept
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	sleep, slept := noSleep()
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Seed: 1, Sleep: sleep}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	// Equal jitter keeps every delay in [d/2, d] of the capped ladder.
	for i, d := range *slept {
		ladder := p.BaseDelay << uint(i)
		if ladder > p.MaxDelay {
			ladder = p.MaxDelay
		}
		if d < ladder/2 || d > ladder {
			t.Errorf("backoff %d = %v outside [%v, %v]", i, d, ladder/2, ladder)
		}
	}
}

func TestDoDeterministicJitter(t *testing.T) {
	run := func() []time.Duration {
		sleep, slept := noSleep()
		p := Policy{MaxAttempts: 4, Seed: 99, Sleep: sleep}
		p.Do(context.Background(), func(context.Context) error { return errors.New("x") })
		return *slept
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("want 3 backoffs each, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("backoff %d = %v then %v; jitter not deterministic", i, a[i], b[i])
		}
	}
}

// TestDoBackoffSequencePinned pins the jittered delays a fixed Seed yields,
// so seeding the source lazily (or any other change to how Do draws jitter)
// cannot silently alter the schedule.
func TestDoBackoffSequencePinned(t *testing.T) {
	sleep, slept := noSleep()
	p := Policy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42, Sleep: sleep}
	p.Do(context.Background(), func(context.Context) error { return errors.New("x") })
	want := []time.Duration{5545452, 19148845, 32775785, 56310550, 79699267}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i := range want {
		if (*slept)[i] != want[i] {
			t.Errorf("backoff %d = %d, want %d", i, (*slept)[i], want[i])
		}
	}
}

// TestDoFirstAttemptSuccessAllocatesNothing: the jitter source is only
// needed for a retry, so a call that succeeds at once must not build one.
func TestDoFirstAttemptSuccessAllocatesNothing(t *testing.T) {
	p := Policy{MaxAttempts: 3, Seed: 7}
	ctx := context.Background()
	ok := func(context.Context) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() { p.Do(ctx, ok) }); allocs != 0 {
		t.Fatalf("first-attempt success allocates %v times per call, want 0", allocs)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	sleep, _ := noSleep()
	p := Policy{MaxAttempts: 3, Seed: 1, Sleep: sleep}
	calls := 0
	wantErr := errors.New("still down")
	err := p.Do(context.Background(), func(context.Context) error { calls++; return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoPermanentStopsRetrying(t *testing.T) {
	sleep, _ := noSleep()
	p := Policy{MaxAttempts: 5, Seed: 1, Sleep: sleep}
	calls := 0
	inner := errors.New("verification failed")
	err := p.Do(context.Background(), func(context.Context) error { calls++; return Permanent(inner) })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (permanent error must not retry)", calls)
	}
	if !errors.Is(err, inner) {
		t.Fatalf("err = %v, want unwrapped %v", err, inner)
	}
	if IsPermanent(err) {
		t.Error("returned error still carries the Permanent wrapper")
	}
}

func TestDoAttemptTimeout(t *testing.T) {
	sleep, _ := noSleep()
	p := Policy{MaxAttempts: 2, AttemptTimeout: time.Millisecond, Seed: 1, Sleep: sleep}
	var deadlines int
	err := p.Do(context.Background(), func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			deadlines++
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if deadlines != 2 {
		t.Fatalf("saw %d per-attempt deadlines, want 2", deadlines)
	}
}

func TestDoParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, Seed: 1}
	calls := 0
	wantErr := errors.New("down")
	err := p.Do(ctx, func(context.Context) error {
		calls++
		cancel() // parent dies after the first attempt
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want last attempt error %v", err, wantErr)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled parent must stop the loop)", calls)
	}
}

func TestHedgeFirstSuccessWins(t *testing.T) {
	got, err := Hedge(context.Background(), 3, time.Hour, func(ctx context.Context, i int) (int, error) {
		if i != 0 {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 42, nil
	})
	if err != nil || got != 42 {
		t.Fatalf("Hedge = %d, %v; want 42, nil", got, err)
	}
}

func TestHedgeFailoverOnError(t *testing.T) {
	// Replica 0 fails instantly; the hedge must launch replica 1 without
	// waiting out the (huge) hedge delay.
	done := make(chan struct{})
	got, err := Hedge(context.Background(), 2, time.Hour, func(_ context.Context, i int) (string, error) {
		if i == 0 {
			return "", errors.New("replica 0 down")
		}
		close(done)
		return "replica 1", nil
	})
	if err != nil || got != "replica 1" {
		t.Fatalf("Hedge = %q, %v; want replica 1, nil", got, err)
	}
	<-done
}

func TestHedgeAllFail(t *testing.T) {
	var calls atomic.Int64
	_, err := Hedge(context.Background(), 3, 0, func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		return 0, errors.New("down")
	})
	if err == nil {
		t.Fatal("Hedge succeeded with all replicas failing")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
}

func TestHedgeStaggersByDelay(t *testing.T) {
	// With a long hedge delay and a fast replica 0, only replica 0 runs.
	var maxReplica int
	got, err := Hedge(context.Background(), 3, time.Hour, func(_ context.Context, i int) (int, error) {
		if i > maxReplica {
			maxReplica = i
		}
		return i, nil
	})
	if err != nil || got != 0 {
		t.Fatalf("Hedge = %d, %v; want 0, nil", got, err)
	}
	if maxReplica != 0 {
		t.Fatalf("replica %d launched despite replica 0 winning instantly", maxReplica)
	}
}

func TestHedgeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Hedge(ctx, 2, time.Hour, func(ctx context.Context, _ int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	b := &Breaker{Threshold: 3, Cooldown: time.Second, Clock: func() time.Time { return now }}
	fail := errors.New("down")

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("breaker open after %d failures, threshold 3", i)
		}
		b.Record(fail)
	}
	if !b.Open() {
		t.Fatal("breaker closed after hitting threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}

	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("breaker allowed a second concurrent probe")
	}

	// Probe fails: re-open, cooldown restarts.
	b.Record(fail)
	if b.Allow() {
		t.Fatal("breaker closed after a failed probe")
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused a probe after the second cooldown")
	}
	// Probe succeeds: circuit closes fully.
	b.Record(nil)
	if b.Open() {
		t.Fatal("breaker still open after successful probe")
	}
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker throttled calls")
	}
	if b.Fails() != 0 {
		t.Fatalf("fails = %d after success, want 0", b.Fails())
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := &Breaker{Threshold: 2}
	fail := errors.New("down")
	b.Record(fail)
	b.Record(nil)
	b.Record(fail)
	if b.Open() {
		t.Fatal("breaker opened although failures were never consecutive")
	}
}
