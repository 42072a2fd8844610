// Package client is the supported Go client for an adcache cluster (or a
// single adcached node): it speaks the versioned /v1 wire API, caches the
// cluster's shard map, routes every key to its owning node, batches
// multi-key operations per node and dispatches them concurrently over
// pooled keep-alive connections, and transparently refreshes its map and
// retries when a node answers WRONG_SHARD — the signal that a shard moved.
//
//	c, err := client.New([]string{"127.0.0.1:8081", "127.0.0.1:8082"})
//	...
//	err = c.Put([]byte("k"), []byte("v"))
//	v, ok, err := c.Get([]byte("k"))
//
// Against a node started without cluster flags the client runs in
// single-node mode: no map, every request to the one seed address.
//
// Consistency contract: a rebalance fences the old owner before the new
// owner accepts a key, so an acked write is never lost across a shard
// move; during the move itself requests to the moving shard retry with
// backoff (bounded by WithMaxRetries) until the new owner holds both the
// map and the data. Multi-node Batch is atomic per node, not across
// nodes. Scan fans out to every node and merges, so results spanning a
// concurrent rebalance are eventually consistent.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
)

// KV is one scan result.
type KV struct {
	Key   []byte
	Value []byte
}

// OpKind selects a batch operation.
type OpKind string

// The batch operation kinds.
const (
	OpPut    OpKind = "put"
	OpDelete OpKind = "delete"
)

// Op is one operation in a Batch.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte
}

// Stats is a point-in-time snapshot of the client's routing behavior —
// the observable the cluster tests assert on (bounded retries, zero
// unexpected errors).
type Stats struct {
	// Epoch is the client's current shard-map epoch (0 in single-node mode).
	Epoch uint64
	// WrongShardRetries counts requests re-sent after a WRONG_SHARD answer.
	WrongShardRetries int64
	// MapRefreshes counts shard-map fetches after the initial bootstrap.
	MapRefreshes int64
	// RetryableErrors counts attempts that failed retryably — transport
	// errors, per-attempt timeouts, open breakers — and were retried.
	RetryableErrors int64
	// TerminalErrors counts calls that ended in a terminal error (an
	// envelope other than WRONG_SHARD/NOT_FOUND, the caller's context
	// ending, or a response body that died mid-read once the caller's
	// context was already gone).
	TerminalErrors int64
	// BreakerOpens and BreakerCloses count per-node circuit-breaker
	// transitions; a close after an open is the recovery signal chaos
	// tests assert on.
	BreakerOpens  int64
	BreakerCloses int64
	// HedgedReads counts hedge requests launched (WithHedgedReads);
	// HedgeWins counts hedges that answered before the primary.
	HedgedReads int64
	HedgeWins   int64
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (tests,
// custom transports). The default pools 64 keep-alive connections per
// node so concurrent requests to one node pipeline instead of
// re-dialing.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithMaxRetries bounds per-request WRONG_SHARD/transport retries
// (default 20 — enough to ride out one shard migration).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithRetryBackoff sets the per-attempt backoff base (default 5ms). The
// k-th retry waits a full-jitter draw from [0, min(cap, base·2^(k-1))];
// the cap defaults to 20×base (see WithBackoffCap).
func WithRetryBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithBackoffCap caps the exponential backoff ceiling (default 20×base).
func WithBackoffCap(d time.Duration) Option { return func(c *Client) { c.backoffCap = d } }

// WithRequestTimeout puts a deadline on each individual attempt (0 —
// the default — relies on the http.Client's overall timeout only). With
// it, a hung node costs one attempt's timeout, not the whole call
// budget; the deadline covers reading the response body, so size it for
// scans too.
func WithRequestTimeout(d time.Duration) Option { return func(c *Client) { c.reqTimeout = d } }

// WithJitterSeed seeds the backoff/jitter PRNG so retry schedules
// replay run-to-run (0 = seed from the clock).
func WithJitterSeed(seed int64) Option { return func(c *Client) { c.jitterSeed = seed } }

// WithBreaker tunes the per-node circuit breaker: it opens after
// threshold consecutive transport failures to one node and half-open
// probes after cooldown (defaults 5 and 200ms). An open breaker never
// fails a call terminally — attempts against it are skipped and
// retried elsewhere in time, so a dead node stops eating connect
// timeouts and a recovering one is rediscovered by a single probe.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) { c.breakerThreshold, c.breakerCooldown = threshold, cooldown }
}

// WithHedgedReads arms read hedging: a Get or scan-open that has not
// answered within delay is raced against a second identical request on
// another pooled connection; the first usable answer wins. Reads only —
// writes are never hedged. This converts a brownout node's tail (slow
// with probability p) into p² at the cost of bounded duplicate reads.
func WithHedgedReads(delay time.Duration) Option { return func(c *Client) { c.hedgeDelay = delay } }

// WithBinary switches the bulk data plane to the length-prefixed binary
// framing: batches POST application/x-adcache-bin bodies and scans ask
// for the binary entry stream via Accept. Semantics are identical to
// the JSON default — same routing, retries, and error envelopes — minus
// the JSON encode/decode cost, and values round-trip as raw bytes
// (arbitrary binary survives; JSON degrades invalid UTF-8 to U+FFFD).
// Requires servers that speak the codec; older servers answer 400.
func WithBinary() Option { return func(c *Client) { c.binary = true } }

// Client is a shard-map-caching, routing, retrying cluster client. Safe
// for concurrent use.
type Client struct {
	httpc      *http.Client
	seeds      []string
	maxRetries int
	backoff    time.Duration
	backoffCap time.Duration
	reqTimeout time.Duration
	hedgeDelay time.Duration
	jitterSeed int64
	binary     bool

	breakerThreshold int
	breakerCooldown  time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand

	brMu     sync.Mutex
	breakers map[string]*breaker

	cur atomic.Pointer[cluster.ShardMap] // nil in single-node mode

	retries       atomic.Int64
	refreshes     atomic.Int64
	retryableErrs atomic.Int64
	terminalErrs  atomic.Int64
	breakerOpens  atomic.Int64
	breakerCloses atomic.Int64
	hedges        atomic.Int64
	hedgeWins     atomic.Int64
}

// New connects to a cluster through one or more seed addresses
// ("host:port"). It bootstraps the shard map from the first seed that
// serves /v1/shardmap; if every seed reports it is not
// cluster-configured, the client degrades to single-node mode against
// the first seed.
func New(seeds []string, opts ...Option) (*Client, error) {
	if len(seeds) == 0 {
		return nil, errors.New("client: no seed addresses")
	}
	c := &Client{
		seeds:            append([]string(nil), seeds...),
		maxRetries:       20,
		backoff:          5 * time.Millisecond,
		breakerThreshold: 5,
		breakerCooldown:  200 * time.Millisecond,
		breakers:         map[string]*breaker{},
	}
	for _, o := range opts {
		o(c)
	}
	if c.backoffCap <= 0 {
		c.backoffCap = 20 * c.backoff
	}
	c.rng = seededRNG(c.jitterSeed)
	if c.httpc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 64
		c.httpc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	var lastErr error
	for _, seed := range c.seeds {
		m, err := c.fetchMap(context.Background(), seed)
		if err == nil {
			c.cur.Store(m)
			return c, nil
		}
		var env *api.Envelope
		if errors.As(err, &env) && env.Code == api.CodeNotFound {
			return c, nil // single-node mode
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: bootstrap failed against all seeds: %w", lastErr)
}

// Close releases pooled connections.
func (c *Client) Close() { c.httpc.CloseIdleConnections() }

// Epoch returns the cached shard-map epoch (0 in single-node mode).
func (c *Client) Epoch() uint64 {
	if m := c.cur.Load(); m != nil {
		return m.Epoch
	}
	return 0
}

// Stats returns a snapshot of the client's routing counters.
func (c *Client) Stats() Stats {
	return Stats{
		Epoch:             c.Epoch(),
		WrongShardRetries: c.retries.Load(),
		MapRefreshes:      c.refreshes.Load(),
		RetryableErrors:   c.retryableErrs.Load(),
		TerminalErrors:    c.terminalErrs.Load(),
		BreakerOpens:      c.breakerOpens.Load(),
		BreakerCloses:     c.breakerCloses.Load(),
		HedgedReads:       c.hedges.Load(),
		HedgeWins:         c.hedgeWins.Load(),
	}
}

// fetchMap GETs /v1/shardmap from addr.
func (c *Client) fetchMap(ctx context.Context, addr string) (*cluster.ShardMap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/shardmap", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeEnvelope(resp)
	}
	var m cluster.ShardMap
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// refreshFrom adopts addr's map if it is newer than the cached one.
// Epochs only move forward — a node still holding an older map cannot
// regress the client.
func (c *Client) refreshFrom(ctx context.Context, addr string) {
	m, err := c.fetchMap(ctx, addr)
	if err != nil {
		return
	}
	c.refreshes.Add(1)
	for {
		cur := c.cur.Load()
		if cur != nil && m.Epoch <= cur.Epoch {
			return
		}
		if c.cur.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Refresh force-fetches the shard map from every known node, keeping the
// highest epoch.
func (c *Client) Refresh(ctx context.Context) {
	for _, addr := range c.addrs() {
		c.refreshFrom(ctx, addr)
	}
}

// addrs returns every routable node address (map nodes, or the seeds).
func (c *Client) addrs() []string {
	if m := c.cur.Load(); m != nil {
		out := make([]string, len(m.Nodes))
		for i, n := range m.Nodes {
			out[i] = n.Addr
		}
		return out
	}
	return c.seeds[:1]
}

// route returns the address owning key under the cached map.
func (c *Client) route(key []byte) string {
	m := c.cur.Load()
	if m == nil {
		return c.seeds[0]
	}
	owner := m.OwnerOf(key)
	if n, ok := m.NodeByID(owner); ok {
		return n.Addr
	}
	return c.seeds[0]
}

// decodeEnvelope turns a non-2xx response into an *api.Envelope error
// (synthesizing one when the body is not an envelope).
func decodeEnvelope(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env api.Envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Code != "" {
		return &env
	}
	return &api.Envelope{
		Code:    api.CodeInternal,
		Message: fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body)),
	}
}

// do executes one keyed request with WRONG_SHARD/transport retries.
// build makes the request for the currently routed address; handle
// consumes a 2xx response; hedge marks the request idempotent and
// eligible for hedged execution (WithHedgedReads). Retryable failures
// (transport errors, per-attempt timeouts, open breakers, WRONG_SHARD)
// back off with full jitter and go again; terminal answers (any other
// envelope, or the caller's context ending) return immediately.
func (c *Client) do(ctx context.Context, key []byte, hedge bool, build func(addr string) (*http.Request, error), handle func(*http.Response) error) error {
	var lastErr error
	for attempt := 0; attempt <= c.maxRetries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt); err != nil {
				c.terminalErrs.Add(1)
				return fmt.Errorf("client: request abandoned after %d attempts: %w", attempt, err)
			}
		}
		if err := ctx.Err(); err != nil {
			c.terminalErrs.Add(1)
			return err
		}
		addr := c.route(key)
		resp, release, err := c.attempt(ctx, addr, build, hedge)
		if err != nil {
			// An open breaker lands here too: a retryable non-event, not
			// a user-visible failure — if the map moves the key elsewhere
			// meanwhile, the next attempt routes there.
			if !IsRetryable(err) {
				c.terminalErrs.Add(1)
				return err
			}
			c.retryableErrs.Add(1)
			lastErr = err
			continue
		}
		if resp.StatusCode/100 == 2 {
			herr := handle(resp)
			resp.Body.Close()
			release()
			if herr == nil {
				return nil
			}
			// A 2xx whose body died mid-read (connection reset,
			// truncated stream, the attempt deadline firing while
			// streaming) is a transport-class failure, not an answer:
			// retry idempotent reads; writes never error in handle, so
			// the terminal path below is reached only once the caller's
			// own context has ended.
			if hedge && ctx.Err() == nil {
				c.retryableErrs.Add(1)
				lastErr = herr
				continue
			}
			c.terminalErrs.Add(1)
			return herr
		}
		envErr := decodeEnvelope(resp)
		resp.Body.Close()
		release()
		var env *api.Envelope
		if errors.As(envErr, &env) && env.Code == api.CodeWrongShard {
			c.retries.Add(1)
			lastErr = envErr
			// The rejecting node is ahead of us: adopt its map and go
			// again immediately. A node *behind* us (mid-publish) just
			// needs time — fall through to the backoff.
			if env.Epoch > c.Epoch() {
				c.refreshFrom(ctx, addr)
			}
			continue
		}
		if env == nil || env.Code != api.CodeNotFound {
			c.terminalErrs.Add(1) // NOT_FOUND is an answer, not an error
		}
		return envErr
	}
	return fmt.Errorf("client: retries exhausted for key %q: %w", key, lastErr)
}

// attempt runs one breaker-gated round trip against addr — the only path
// from a data-plane call to the network. An open breaker skips the dial
// (ErrBreakerOpen, retryable) and lets a half-open probe test the node. A
// transport failure charges the breaker; one caused by the caller's
// context ending says nothing about the node's health, so it releases
// any probe slot instead — repeated short caller deadlines must not open
// the breaker. A response, of any status, proves the node alive and is
// checked for evidence of a newer shard map. On success the caller
// closes the body and then calls release.
func (c *Client) attempt(ctx context.Context, addr string, build func(addr string) (*http.Request, error), hedge bool) (*http.Response, func(), error) {
	if !c.breakerFor(addr).allow(time.Now(), c.breakerCooldown) {
		return nil, nil, fmt.Errorf("%w (%s)", ErrBreakerOpen, addr)
	}
	resp, release, err := c.roundTrip(ctx, addr, build, hedge)
	if err != nil {
		if ctx.Err() == nil {
			c.noteTransport(addr, false)
		} else {
			c.breakerFor(addr).abandonProbe()
		}
		return nil, nil, err
	}
	c.noteTransport(addr, true)
	c.noteEpochHeader(ctx, resp, addr)
	return resp, release, nil
}

// sleep waits the attempt-th jittered backoff, or returns the caller's
// context error immediately once it ends — no post-cancel attempts.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.backoffJitter(attempt)
	if d <= 0 {
		return ctx.Err()
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

// noteEpochHeader watches response routing headers for evidence of a
// newer map and refreshes passively.
func (c *Client) noteEpochHeader(ctx context.Context, resp *http.Response, addr string) {
	raw := resp.Header.Get(api.HeaderEpoch)
	if raw == "" {
		return
	}
	e, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return
	}
	if cur := c.Epoch(); cur != 0 && e > cur {
		c.refreshFrom(ctx, addr)
	}
}

// epochHeaderValue renders an epoch for the routing header.
func epochHeaderValue(e uint64) string { return strconv.FormatUint(e, 10) }

func (c *Client) keyURL(addr string, key []byte) string {
	return "http://" + addr + "/v1/kv/" + url.PathEscape(string(key))
}

// Get fetches key. ok is false when the key does not exist.
func (c *Client) Get(key []byte) (value []byte, ok bool, err error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx is Get with a context.
func (c *Client) GetCtx(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	err = c.do(ctx, key, true,
		func(addr string) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, c.keyURL(addr, key), nil)
		},
		func(resp *http.Response) error {
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			value, ok = b, true
			return nil
		})
	var env *api.Envelope
	if errors.As(err, &env) && env.Code == api.CodeNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return value, ok, nil
}

// Put writes key=value. A nil error means the write is acked by the
// shard's owning node.
func (c *Client) Put(key, value []byte) error {
	return c.PutCtx(context.Background(), key, value)
}

// PutCtx is Put with a context.
func (c *Client) PutCtx(ctx context.Context, key, value []byte) error {
	return c.do(ctx, key, false,
		func(addr string) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodPut, c.keyURL(addr, key), bytes.NewReader(value))
		},
		func(*http.Response) error { return nil })
}

// Delete removes key (idempotent).
func (c *Client) Delete(key []byte) error {
	return c.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete with a context.
func (c *Client) DeleteCtx(ctx context.Context, key []byte) error {
	return c.do(ctx, key, false,
		func(addr string) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodDelete, c.keyURL(addr, key), nil)
		},
		func(*http.Response) error { return nil })
}

// Scan returns up to n entries with key >= start (and < end when end is
// non-empty), merged across every node in key order.
func (c *Client) Scan(start, end []byte, n int) ([]KV, error) {
	return c.ScanCtx(context.Background(), start, end, n)
}

// ScanCtx is Scan with a context. The merge is incremental: every
// node's response is decoded entry-by-entry as it streams in (JSON
// array or binary entry stream, per WithBinary) and merge-sorted on the
// fly, so the client holds at most one pending entry per node plus the
// n results — never a node's full response — and cancels the underlying
// requests as soon as n entries are merged.
func (c *Client) ScanCtx(ctx context.Context, start, end []byte, n int) ([]KV, error) {
	if n <= 0 {
		n = 16
	}
	addrs := c.addrs()
	// A child context so returning (n reached, or any stream error)
	// aborts every stream still in flight.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	streams := make([]*scanStream, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			streams[i], errs[i] = c.openScan(sctx, addr, start, end, n)
		}(i, addr)
	}
	wg.Wait()
	defer func() {
		for _, st := range streams {
			if st != nil {
				st.resp.Body.Close()
				if st.release != nil {
					st.release()
				}
			}
		}
	}()
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		if streams[i].err != nil {
			return nil, streams[i].err
		}
	}
	// Shards partition the keyspace, so streams never carry duplicate
	// keys: plain min-select over the stream heads yields global order.
	out := make([]KV, 0, n)
	for len(out) < n {
		best := -1
		for i, st := range streams {
			if st.exhausted {
				continue
			}
			if best == -1 || bytes.Compare(st.key, streams[best].key) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		st := streams[best]
		out = append(out, KV{Key: st.key, Value: st.value})
		st.advance()
		if st.err != nil {
			return nil, st.err
		}
	}
	return out, nil
}

// scanStream is one node's scan response, decoded incrementally. key
// and value hold the current (not-yet-consumed) entry, owned by the
// stream's consumer once handed out — advance always builds fresh
// slices.
type scanStream struct {
	resp      *http.Response
	release   func()                                // cancels the attempt contexts; call after Body.Close
	pull      func() (key, value []byte, err error) // io.EOF at clean end
	key       []byte
	value     []byte
	err       error
	exhausted bool
}

// advance loads the next entry, marking the stream exhausted at a clean
// end and recording any decode/transport error (a truncated stream —
// the server died mid-scan — surfaces here, never as silent shortness).
func (s *scanStream) advance() {
	k, v, err := s.pull()
	if err != nil {
		s.exhausted = true
		if err != io.EOF {
			s.err = err
		}
		return
	}
	s.key, s.value = k, v
}

// openScan starts one node's scan and primes its first entry. The open
// is hedged when WithHedgedReads is armed — a scan is an idempotent
// read, so racing a second open against a slow node is safe.
func (c *Client) openScan(ctx context.Context, addr string, start, end []byte, n int) (*scanStream, error) {
	q := url.Values{}
	q.Set("start", string(start))
	if len(end) > 0 {
		q.Set("end", string(end))
	}
	q.Set("n", strconv.Itoa(n))
	build := func(addr string) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			"http://"+addr+"/v1/scan?"+q.Encode(), nil)
		if err != nil {
			return nil, err
		}
		if c.binary {
			req.Header.Set("Accept", wire.ContentType)
		}
		return req, nil
	}
	resp, release, err := c.attempt(ctx, addr, build, true)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer release()
		defer resp.Body.Close()
		return nil, decodeEnvelope(resp)
	}
	st := &scanStream{resp: resp, release: release}
	if resp.Header.Get("Content-Type") == wire.ContentType {
		// Binary entry stream: the decoder's slices are scratch reused
		// by the next frame, so copy out before handing them upward.
		// Copies are carved from a chunked arena — two allocations per
		// entry would make the scan hot path GC-bound.
		dec := &wire.StreamDecoder{}
		dec.Reset(resp.Body)
		var arena []byte
		carve := func(b []byte) []byte {
			if len(b) > len(arena) {
				sz := 64 << 10
				if len(b) > sz {
					sz = len(b)
				}
				arena = make([]byte, sz)
			}
			out := arena[:len(b):len(b)]
			arena = arena[len(b):]
			copy(out, b)
			return out
		}
		st.pull = func() ([]byte, []byte, error) {
			k, v, err := dec.Next()
			if err != nil {
				return nil, nil, err
			}
			return carve(k), carve(v), nil
		}
	} else {
		// JSON array, element-at-a-time: Token consumes the brackets,
		// Decode one entry per pull.
		dec := json.NewDecoder(resp.Body)
		if _, err := dec.Token(); err != nil { // opening [
			resp.Body.Close()
			release()
			return nil, err
		}
		st.pull = func() ([]byte, []byte, error) {
			if !dec.More() {
				if _, err := dec.Token(); err != nil { // closing ]
					return nil, nil, err
				}
				return nil, nil, io.EOF
			}
			var e api.ScanEntry
			if err := dec.Decode(&e); err != nil {
				return nil, nil, err
			}
			return []byte(e.Key), []byte(e.Value), nil
		}
	}
	st.advance()
	return st, nil
}

// Batch applies ops, grouped by owning node and dispatched concurrently.
// Each node's group is atomic on that node; cross-node batches are not
// atomic as a whole. Only failed groups are retried — re-routed under a
// refreshed map after WRONG_SHARD, re-sent as-is after a transport
// failure. A group its node has acked is never re-sent; a group whose
// ack was lost may be re-sent (puts and deletes are idempotent
// last-write-wins), so each group applies at-least-once and an acked
// batch is never lost.
func (c *Client) Batch(ops []Op) error {
	return c.BatchCtx(context.Background(), ops)
}

// BatchCtx is Batch with a context.
func (c *Client) BatchCtx(ctx context.Context, ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	pending := ops
	var lastErr error
	for attempt := 0; attempt <= c.maxRetries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt); err != nil {
				c.terminalErrs.Add(1)
				return fmt.Errorf("client: batch abandoned (%d ops unacked): %w", len(pending), err)
			}
		}
		if err := ctx.Err(); err != nil {
			c.terminalErrs.Add(1)
			return err
		}
		groups := map[string][]Op{}
		for _, op := range pending {
			addr := c.route(op.Key)
			groups[addr] = append(groups[addr], op)
		}
		retry, retryErr, fatal := c.sendGroups(ctx, groups)
		if fatal != nil {
			return fatal
		}
		if len(retry) == 0 {
			return nil
		}
		pending, lastErr = retry, retryErr
		c.retries.Add(1)
	}
	return fmt.Errorf("client: batch retries exhausted (%d ops unacked): %w", len(pending), lastErr)
}

// sendGroups posts each node's group concurrently. Failed groups come
// back in retry: WRONG_SHARD groups re-route under the map that was
// already refreshed; transport-failed groups re-send as-is — the node
// may or may not have applied them (a dropped ack means it did), and
// idempotent last-write-wins ops make the re-send safe. Terminal
// failures (other envelopes, the caller's context ending) are fatal.
// Acked groups are consumed here and never returned.
func (c *Client) sendGroups(ctx context.Context, groups map[string][]Op) (retry []Op, retryErr, fatal error) {
	type result struct {
		addr string
		ops  []Op
		err  error
	}
	results := make(chan result, len(groups))
	for addr, group := range groups {
		go func(addr string, group []Op) {
			results <- result{addr, group, c.postBatch(ctx, addr, group)}
		}(addr, group)
	}
	for range groups {
		r := <-results
		if r.err == nil {
			continue
		}
		var env *api.Envelope
		if errors.As(r.err, &env) && env.Code == api.CodeWrongShard {
			if env.Epoch > c.Epoch() {
				c.refreshFrom(ctx, r.addr)
			}
			retry = append(retry, r.ops...)
			retryErr = r.err
			continue
		}
		if IsRetryable(r.err) {
			c.retryableErrs.Add(1)
			retry = append(retry, r.ops...)
			retryErr = r.err
			continue
		}
		c.terminalErrs.Add(1)
		fatal = r.err // keep draining; the channel is buffered
	}
	if fatal != nil {
		return nil, nil, fatal
	}
	return retry, retryErr, nil
}

func (c *Client) postBatch(ctx context.Context, addr string, group []Op) error {
	var body []byte
	contentType := "application/json"
	if c.binary {
		contentType = wire.ContentType
		var buf []byte
		bp := wire.GetBuf()
		// The buffer is pooled; it outlives Do because bytes.Reader's
		// GetBody (for transport retries) re-slices it, so release only
		// after the round trip fully completes.
		defer func() { *bp = buf; wire.PutBuf(bp) }()
		buf = wire.AppendBatchHeader((*bp)[:0], len(group))
		for _, op := range group {
			switch op.Kind {
			case OpDelete:
				buf = wire.AppendDelete(buf, op.Key)
			case OpPut:
				buf = wire.AppendPut(buf, op.Key, op.Value)
			default:
				return fmt.Errorf("client: unknown batch op kind %q", op.Kind)
			}
		}
		body = buf
	} else {
		jops := make([]api.BatchOp, len(group))
		for i, op := range group {
			jops[i] = api.BatchOp{Op: string(op.Kind), Key: string(op.Key), Value: string(op.Value)}
		}
		b, err := json.Marshal(jops)
		if err != nil {
			return err
		}
		body = b
	}
	build := func(addr string) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			"http://"+addr+"/v1/batch", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		return req, nil
	}
	resp, release, err := c.attempt(ctx, addr, build, false)
	if err != nil {
		return err
	}
	defer release()
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeEnvelope(resp)
	}
	return nil
}
