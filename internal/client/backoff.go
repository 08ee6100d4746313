package client

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Backoff computes capped exponential retry delays with seeded jitter.
// Attempt n's nominal delay is min(Cap, Base·Factor^n); the returned delay is
// jittered uniformly into [nominal/2, nominal) ("equal jitter"), so
// concurrent retriers decorrelate while every delay stays below Cap and the
// total wait across N attempts stays below MaxTotal(N). The zero value is not
// usable; build with NewBackoff.
type Backoff struct {
	base   time.Duration
	cap    time.Duration
	factor float64

	mu  sync.Mutex
	rng *rand.Rand
}

// Backoff defaults: first delay, per-attempt ceiling, growth factor.
const (
	DefaultBackoffBase   = 50 * time.Millisecond
	DefaultBackoffCap    = 2 * time.Second
	defaultBackoffFactor = 2.0
)

// NewBackoff builds a backoff schedule. base and cap fall back to
// DefaultBackoffBase / DefaultBackoffCap when non-positive; the seed fixes
// the jitter sequence, so a given (base, cap, seed) triple always produces
// the same delays — the property the chaos tests lean on.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	if cap < base {
		cap = base
	}
	return &Backoff{
		base:   base,
		cap:    cap,
		factor: defaultBackoffFactor,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Cap returns the per-attempt delay ceiling.
func (b *Backoff) Cap() time.Duration { return b.cap }

// nominal returns attempt's un-jittered delay: min(cap, base·factor^attempt).
func (b *Backoff) nominal(attempt int) time.Duration {
	d := float64(b.base)
	for i := 0; i < attempt; i++ {
		d *= b.factor
		if d >= float64(b.cap) {
			return b.cap
		}
	}
	if d >= float64(b.cap) {
		return b.cap
	}
	return time.Duration(d)
}

// Delay returns the jittered delay to sleep before retry number attempt
// (0-based: Delay(0) precedes the first retry). Always in [nominal/2,
// nominal], hence never above Cap.
func (b *Backoff) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	n := b.nominal(attempt)
	half := n / 2
	b.mu.Lock()
	j := time.Duration(b.rng.Int63n(int64(half) + 1))
	b.mu.Unlock()
	return half + j
}

// MaxTotal returns a proven upper bound on the cumulative sleep across
// attempts retries: the sum of the un-jittered per-attempt delays. Delay's
// jitter only shrinks each term, so sum(Delay(0..attempts-1)) <= MaxTotal.
func (b *Backoff) MaxTotal(attempts int) time.Duration {
	var total time.Duration
	for i := 0; i < attempts; i++ {
		total += b.nominal(i)
	}
	return total
}

// IsTemporary reports whether err is worth retrying: an *APIError whose
// Temporary() is true (429 backpressure, 503 drain, 504 timeout), or a
// transport-level failure (connection refused/reset, unexpected EOF — the
// shapes a killed node produces). Context cancellation and permanent API
// rejections (4xx validation) are not temporary.
func IsTemporary(err error) bool {
	if err == nil {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Temporary()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// Retry runs fn up to attempts times, sleeping a jittered backoff between
// tries while the error stays temporary (IsTemporary). A server Retry-After
// hint stretches the sleep, but never past the schedule's Cap, so the total
// wait is bounded by b.MaxTotal(attempts-1) regardless of what the server
// asks for. The first non-temporary error, a nil error, or ctx expiry ends
// the loop immediately.
func Retry(ctx context.Context, b *Backoff, attempts int, fn func(context.Context) error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			d := b.Delay(a - 1)
			var ae *APIError
			if errors.As(err, &ae) && ae.RetryAfter > d {
				d = min(ae.RetryAfter, b.Cap())
			}
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			}
		}
		err = fn(ctx)
		if err == nil || !IsTemporary(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}
