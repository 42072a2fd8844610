package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"adcache/internal/api"
)

// This file is the client's resilience layer: typed error classification,
// capped-exponential backoff with full jitter, per-node circuit breakers
// with half-open probing, and hedged reads. The routing/retry loop in
// client.go consumes these pieces; none of them change the consistency
// contract — they change how fast and how politely the client rides out
// a slow, partitioned, or dead node.

// ErrBreakerOpen is the per-attempt error recorded while a node's circuit
// breaker is open: the client skipped dialing the node entirely. It is
// retryable — the retry loop backs off and probes again — and shows up in
// a returned "retries exhausted" error chain when a node stays dead past
// the retry budget.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrAttemptTimeout marks a request ended by the per-attempt deadline
// (WithRequestTimeout) while the caller's own context was still live.
// The raw failure wraps the *attempt* context's DeadlineExceeded —
// indistinguishable by errors.Is from the caller's deadline ending, which
// is terminal — so roundTrip tags it with this sentinel at the only
// place the two contexts can be told apart. It is retryable by
// definition: the whole point of a per-attempt timeout is that a hung
// node costs one attempt's budget, not the call.
var ErrAttemptTimeout = errors.New("client: per-attempt timeout")

// IsRetryable classifies a client-visible failure: true for failures that
// can heal on their own (transport errors, per-attempt timeouts, an open
// breaker, and WRONG_SHARD — a map refresh away from succeeding), false
// for terminal answers from a live node (NOT_FOUND, BAD_*, INTERNAL, ...)
// and for the caller's own context ending. The client's retry loops use
// exactly this predicate, so a caller inspecting a returned error sees
// the same taxonomy the loop acted on.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	// Checked before the context errors: an attempt timeout wraps the
	// attempt context's DeadlineExceeded, but it is the node that was
	// slow, not the caller that gave up.
	if errors.Is(err, ErrAttemptTimeout) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var env *api.Envelope
	if errors.As(err, &env) {
		return env.Code == api.CodeWrongShard
	}
	// Everything else is transport-level: dial failures, resets, injected
	// chaos faults.
	return true
}

// backoffJitter computes the attempt-th retry delay: full jitter over a
// capped exponential — uniform in [0, min(cap, base·2^(attempt-1))].
// Full jitter (the AWS architecture-blog scheme) beats equal or no jitter
// under contention: when a fenced shard or restarted node comes back,
// retriers spread over the whole window instead of stampeding in sync.
// The draw comes from the client's seeded PRNG so tests and benches can
// replay identical schedules.
func (c *Client) backoffJitter(attempt int) time.Duration {
	ceil := c.backoff
	for i := 1; i < attempt; i++ {
		ceil *= 2
		if ceil >= c.backoffCap {
			ceil = c.backoffCap
			break
		}
	}
	if ceil > c.backoffCap {
		ceil = c.backoffCap
	}
	if ceil <= 0 {
		return 0
	}
	c.rngMu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.rngMu.Unlock()
	return d
}

// breakerState is a node breaker's mode.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one node's circuit breaker. Closed: requests flow, counting
// consecutive transport failures. Open (after threshold consecutive
// failures): requests to the node are skipped without dialing until
// cooldown passes. Half-open: exactly one in-flight probe is allowed; its
// success closes the breaker, its failure re-opens it for another
// cooldown. Only transport-level failures trip it — a node answering
// WRONG_SHARD or NOT_FOUND is alive and well.
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
	probing  bool
}

// allow reports whether a request to this node may proceed now. In
// half-open it admits a single probe at a time.
func (b *breaker) allow(now time.Time, cooldown time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports an attempt's transport outcome. Returns (opened, closed)
// transition flags for the client's stats counters.
func (b *breaker) record(success bool, threshold int, now time.Time) (opened, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if success {
		if b.state != breakerClosed {
			closed = true
		}
		b.state = breakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= threshold) {
		if b.state != breakerOpen {
			opened = true
		}
		b.state = breakerOpen
		b.openedAt = now
	}
	return
}

// abandonProbe releases a probe slot claimed by allow() without
// recording an outcome — for attempts whose result says nothing about
// the node's health (the caller's context ended mid-request, the request
// could not even be built). Without it a half-open breaker whose probe
// was abandoned would stay probing forever, blacklisting the node.
func (b *breaker) abandonProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// breakerFor returns (lazily creating) addr's breaker.
func (c *Client) breakerFor(addr string) *breaker {
	c.brMu.Lock()
	defer c.brMu.Unlock()
	b, ok := c.breakers[addr]
	if !ok {
		b = &breaker{}
		c.breakers[addr] = b
	}
	return b
}

// BreakerState reports addr's breaker mode ("closed", "open",
// "half-open") — the observability hook chaos tests assert recovery on.
func (c *Client) BreakerState(addr string) string {
	c.brMu.Lock()
	b, ok := c.breakers[addr]
	c.brMu.Unlock()
	if !ok {
		return breakerClosed.String()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}

// noteTransport feeds one attempt's transport outcome into addr's breaker
// and the stats counters.
func (c *Client) noteTransport(addr string, success bool) {
	opened, closed := c.breakerFor(addr).record(success, c.breakerThreshold, time.Now())
	if opened {
		c.breakerOpens.Add(1)
	}
	if closed {
		c.breakerCloses.Add(1)
	}
}

// attemptResult is one hedged sub-request's outcome.
type attemptResult struct {
	resp   *http.Response
	err    error
	hedged bool // true when this was the second (hedge) request
}

// roundTrip executes one logical attempt against addr: the request runs
// under a per-attempt deadline (WithRequestTimeout), and — when read
// hedging is enabled and this is an idempotent read — a second identical
// request is launched on another pooled connection if the first has not
// answered within the hedge delay, first usable answer wins. The returned
// release func MUST be called once the response body is fully consumed
// (it cancels the per-attempt contexts); it is non-nil iff err is nil.
func (c *Client) roundTrip(ctx context.Context, addr string, build func(addr string) (*http.Request, error), hedge bool) (*http.Response, func(), error) {
	results := make(chan attemptResult, 2)
	var cancels []context.CancelFunc
	var cancelsMu sync.Mutex
	launch := func(hedged bool) error {
		req, err := build(addr)
		if err != nil {
			return err
		}
		actx := ctx
		var acancel context.CancelFunc
		if c.reqTimeout > 0 {
			actx, acancel = context.WithTimeout(ctx, c.reqTimeout)
		} else {
			actx, acancel = context.WithCancel(ctx)
		}
		cancelsMu.Lock()
		cancels = append(cancels, acancel)
		cancelsMu.Unlock()
		req = req.WithContext(actx)
		if e := c.Epoch(); e > 0 {
			req.Header.Set(api.HeaderEpoch, epochHeaderValue(e))
		}
		go func() {
			resp, err := c.httpc.Do(req)
			if err != nil && actx.Err() != nil && ctx.Err() == nil {
				// The attempt's context ended but the caller's did not:
				// this is WithRequestTimeout firing on a hung node (the
				// only way the two diverge before a winner is picked).
				// Tag it so IsRetryable sees a retryable attempt
				// timeout, not the caller's own deadline.
				err = fmt.Errorf("%w: %w", ErrAttemptTimeout, err)
			}
			results <- attemptResult{resp: resp, err: err, hedged: hedged}
		}()
		return nil
	}
	// cancelAll cancels every launched attempt's context. The winner's
	// body must be consumed before this runs, so it is handed to the
	// caller as the release func rather than deferred here.
	cancelAll := func() {
		cancelsMu.Lock()
		cs := append([]context.CancelFunc(nil), cancels...)
		cancelsMu.Unlock()
		for _, cf := range cs {
			cf()
		}
	}

	if err := launch(false); err != nil {
		return nil, nil, err
	}
	var hedgeC <-chan time.Time
	if hedge && c.hedgeDelay > 0 {
		t := time.NewTimer(c.hedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	launched, got := 1, 0
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			c.hedges.Add(1)
			if err := launch(true); err == nil {
				launched++
			}
		case r := <-results:
			got++
			if r.err == nil {
				if r.hedged {
					c.hedgeWins.Add(1)
				}
				// Winner. Losers are cancelled once the caller releases;
				// any straggler result is drained and closed so its
				// connection returns to the pool.
				remaining := launched - got
				if remaining > 0 {
					go func(n int) {
						for i := 0; i < n; i++ {
							if lr := <-results; lr.resp != nil {
								lr.resp.Body.Close()
							}
						}
					}(remaining)
				}
				return r.resp, cancelAll, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if got == launched {
				// Every launched attempt failed. A hedge still pending on
				// its timer would hit the same address the primary just
				// failed against — the outer retry loop's backoff is the
				// better path, so fail the attempt now.
				cancelAll()
				return nil, nil, firstErr
			}
		}
	}
}

// seededRNG builds the client's jitter source.
func seededRNG(seed int64) *rand.Rand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}
