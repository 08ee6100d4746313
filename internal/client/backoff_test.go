package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"glider/internal/client"
)

// TestBackoffBoundedTotalWait is the satellite fix's proof obligation: the
// jittered schedule never exceeds the per-attempt cap, and the cumulative
// wait across any number of retries stays under the deterministic
// MaxTotal bound, for every seed tried.
func TestBackoffBoundedTotalWait(t *testing.T) {
	t.Parallel()
	const (
		base     = 10 * time.Millisecond
		cap      = 80 * time.Millisecond
		attempts = 12
	)
	for seed := int64(0); seed < 50; seed++ {
		b := client.NewBackoff(base, cap, seed)
		bound := b.MaxTotal(attempts)
		// base + 2·base + 4·base + cap·(attempts-3) = 70ms + 720ms
		if want := 7*base + 9*cap; bound != want {
			t.Fatalf("MaxTotal(%d) = %v, want %v", attempts, bound, want)
		}
		var total time.Duration
		for i := 0; i < attempts; i++ {
			d := b.Delay(i)
			if d > cap {
				t.Fatalf("seed %d: Delay(%d) = %v exceeds cap %v", seed, i, d, cap)
			}
			if d < cap/2 && i >= 3 {
				t.Fatalf("seed %d: Delay(%d) = %v below jitter floor %v", seed, i, d, cap/2)
			}
			total += d
		}
		if total > bound {
			t.Fatalf("seed %d: total wait %v exceeds bound %v", seed, total, bound)
		}
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	a := client.NewBackoff(5*time.Millisecond, 50*time.Millisecond, 42)
	b := client.NewBackoff(5*time.Millisecond, 50*time.Millisecond, 42)
	for i := 0; i < 10; i++ {
		if da, db := a.Delay(i), b.Delay(i); da != db {
			t.Fatalf("attempt %d: same seed produced %v vs %v", i, da, db)
		}
	}
}

func TestIsTemporary(t *testing.T) {
	t.Parallel()
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&client.APIError{StatusCode: 429}, true},
		{&client.APIError{StatusCode: 503}, true},
		{&client.APIError{StatusCode: 504}, true},
		{&client.APIError{StatusCode: 422}, false},
		{&client.APIError{StatusCode: 400}, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{errors.New("connection refused"), true}, // transport-shaped
	}
	for _, tc := range cases {
		if got := client.IsTemporary(tc.err); got != tc.want {
			t.Errorf("IsTemporary(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetryStopsOnSuccessAndPermanentError(t *testing.T) {
	t.Parallel()
	b := client.NewBackoff(time.Millisecond, 2*time.Millisecond, 1)

	// Success on the third try: exactly 3 calls.
	calls := 0
	err := client.Retry(context.Background(), b, 5, func(context.Context) error {
		calls++
		if calls < 3 {
			return &client.APIError{StatusCode: 429, Message: "full"}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retry until success: err=%v calls=%d", err, calls)
	}

	// A permanent 422 stops immediately.
	calls = 0
	err = client.Retry(context.Background(), b, 5, func(context.Context) error {
		calls++
		return &client.APIError{StatusCode: 422, Message: "bad"}
	})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != 422 || calls != 1 {
		t.Fatalf("permanent error: err=%v calls=%d", err, calls)
	}
}

// TestRetryBoundedWallClock pins the end-to-end property: even with a server
// demanding a huge Retry-After on every attempt, the hint is capped at the
// schedule's Cap, so N attempts finish within MaxTotal plus call overhead.
func TestRetryBoundedWallClock(t *testing.T) {
	t.Parallel()
	const attempts = 5
	b := client.NewBackoff(time.Millisecond, 4*time.Millisecond, 7)
	start := time.Now()
	err := client.Retry(context.Background(), b, attempts, func(context.Context) error {
		return &client.APIError{StatusCode: 429, RetryAfter: time.Hour} // hostile hint
	})
	elapsed := time.Since(start)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != 429 {
		t.Fatalf("final error = %v", err)
	}
	// (attempts-1) sleeps, each ≤ Cap despite the 1h hint; generous slack
	// for scheduler noise.
	if bound := b.MaxTotal(attempts-1) + 500*time.Millisecond; elapsed > bound {
		t.Fatalf("retry wall-clock %v exceeds bound %v (Retry-After cap not applied?)", elapsed, bound)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	t.Parallel()
	b := client.NewBackoff(50*time.Millisecond, 100*time.Millisecond, 1)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := client.Retry(ctx, b, 100, func(context.Context) error {
		calls++
		return &client.APIError{StatusCode: 429}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls > 2 {
		t.Fatalf("retry kept going after cancellation: %d calls", calls)
	}
}
