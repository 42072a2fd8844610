// Package server exposes a DB over the versioned /v1 HTTP API — a
// dependency-free network front end that also speaks the cluster
// protocol: shard-ownership enforcement, the shard-map control plane, and
// the migration endpoints the shard manager drives (cmd/adcached serves
// it; client is the supported Go consumer; API.md documents the wire
// format).
//
// Data plane:
//
//	GET    /v1/kv/{key}               → 200 value | 404
//	PUT    /v1/kv/{key}  body=value   → 204
//	DELETE /v1/kv/{key}               → 204
//	GET    /v1/scan?start=K&n=16      → 200 JSON [{"key":...,"value":...}]
//	GET    /v1/scan?start=K&end=L     → bounded variant
//	POST   /v1/batch     JSON ops     → 204 (atomic on this node)
//
// Batch bodies and scan responses additionally speak the binary codec
// (internal/api/wire): POST /v1/batch with Content-Type
// application/x-adcache-bin carries a binary batch, and GET /v1/scan with
// that Accept value streams binary entry frames. JSON stays the default;
// scans stream in both formats (chunks are flushed as the iterator
// advances, and a response that ends without its terminator — "]" or the
// binary end frame — was truncated mid-stream).
//
// Control plane and observability:
//
//	GET    /v1/stats                  → 200 JSON adcache.MetricsSnapshot
//	GET    /v1/shardmap               → 200 JSON cluster.ShardMap
//	POST   /v1/shardmap               → 204 (accept newer epoch)
//	GET    /v1/shardstats             → 200 JSON api.ShardStats
//	GET    /v1/migrate?shard=S        → 200 JSON [api.MigrateEntry] (internal)
//	POST   /v1/migrate?shard=S        → 204 bulk load (internal)
//	DELETE /v1/migrate?shard=S        → 204 purge unowned shard (internal)
//	GET    /metrics                   → 200 Prometheus text exposition
//	GET    /debug/vars                → 200 expvar JSON + registry snapshot
//	GET    /debug/pprof/*             → profiling (opt-in via WithPprof)
//
// Every non-2xx response carries the typed JSON error envelope
// {"code","message","epoch"} (api.Envelope). On a cluster-configured node
// every keyed response also carries X-Adcache-Node/-Epoch/-Shard routing
// headers, and keys outside the node's owned shards are rejected with 421
// WRONG_SHARD — the retryable signal that tells a client its shard map is
// stale.
//
// Keys and values are raw bytes in paths/bodies (keys URL-escaped); scan
// and stats return JSON. Every request is measured into the DB's metrics
// registry (http_requests_total and http_request_nanos by route), and
// keyed operations additionally feed per-shard read/write histograms
// (http_shard_read_nanos{shard="3"}, …) — the series the shard manager
// polls through /v1/shardstats.
//
// Every write request — a single-op put/delete or a whole batch body —
// goes through one write pipeline (coalesce.go): it applies inline as a
// group of one, or, with WithWriteCoalescing, concurrent requests are
// grouped into one engine Apply (one WAL commit, one flight-lock hold).
package server

import (
	"crypto/subtle"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adcache"
	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
	"adcache/internal/metrics"
)

// MapApplier is the optional write half of a cluster.MapSource: a source
// that can accept newer map epochs (cluster.NodeView implements it).
// POST /v1/shardmap requires it.
type MapApplier interface {
	Apply(*cluster.ShardMap) error
}

// config is the resolved option set for one server.
type config struct {
	readOnly      bool
	maxBodyBytes  int64
	nodeID        string
	src           cluster.MapSource
	maxInFlight   int
	serviceTime   time.Duration
	internalToken string
	pprof         bool
	coalesce      bool
	coalWindow    time.Duration
	coalMaxOps    int
	drain         *DrainState
}

// Option configures New.
type Option func(*config)

// WithReadOnly rejects every mutating data request (PUT/POST/DELETE on
// /v1/kv, POST /v1/batch, migration writes) with 403 READ_ONLY, leaving
// reads and observability up — the mode for exposing a store to
// dashboards without write access.
func WithReadOnly() Option { return func(c *config) { c.readOnly = true } }

// WithMaxBodyBytes caps request bodies on /v1/kv, /v1/batch and
// /v1/migrate (default 64 MiB).
func WithMaxBodyBytes(n int64) Option { return func(c *config) { c.maxBodyBytes = n } }

// WithNodeID sets this node's cluster identity (reported in the
// X-Adcache-Node header and /v1/shardstats).
func WithNodeID(id string) Option { return func(c *config) { c.nodeID = id } }

// WithMapSource supplies the shard map the server enforces ownership
// against. If the source also implements MapApplier, POST /v1/shardmap
// accepts newer epochs.
func WithMapSource(src cluster.MapSource) Option { return func(c *config) { c.src = src } }

// WithCluster wires a NodeView as both identity and map source — the
// standard cluster configuration.
func WithCluster(view *cluster.NodeView) Option {
	return func(c *config) {
		c.nodeID = view.ID()
		c.src = view
	}
}

// WithInternalToken sets the shared secret authenticating shard-manager
// traffic: requests whose HeaderInternal value matches it may use the
// /v1/migrate endpoints and bypass ownership checks. Without a token the
// migration surface rejects every request — there is no well-known
// default value.
func WithInternalToken(tok string) Option { return func(c *config) { c.internalToken = tok } }

// WithConcurrencyLimit bounds in-flight data-plane requests; excess
// requests queue. This models a node's finite serving capacity: a node
// taking a disproportionate share of fleet traffic exhibits queueing
// delay, which is exactly the tail-latency signal the shard manager
// rebalances away. Control-plane and observability routes bypass the
// limit so management never queues behind data. 0 means unlimited.
func WithConcurrencyLimit(n int) Option { return func(c *config) { c.maxInFlight = n } }

// WithServiceTime makes every data-plane request hold its concurrency
// slot for at least d. On loopback, real handler time is microseconds —
// far too small for a concurrency limit to ever queue — so load
// generators (adbench -cluster) use this to model nodes backed by slower
// media, where finite capacity is the true bottleneck and overload shows
// up as queueing delay. Production servers leave it zero.
func WithServiceTime(d time.Duration) Option { return func(c *config) { c.serviceTime = d } }

// WithPprof mounts the standard net/http/pprof endpoints under
// /debug/pprof/. Opt-in: profiling handlers can expose stacks and should
// not be on by default on a data port.
func WithPprof() Option { return func(c *config) { c.pprof = true } }

// WithWriteCoalescing groups concurrent write requests — single-op
// puts/deletes and whole /v1/batch bodies — into one engine Apply under
// one flight-lock hold, amortizing WAL fsync and lock costs across
// connections (the cross-request analogue of the engine's write-group
// commit). A group closes after window has passed since its first
// request or once maxOps total ops are staged, whichever comes first;
// window 0 groups only what is already queued (no added latency),
// maxOps <= 0 defaults to 128. Off by default: each write request then
// applies inline as a group of one. A request coalesced into a group is
// acked only after the group's commit returns, and a batch's ops all
// enter the same group apply (atomicity preserved), so durability and
// fence semantics are unchanged — see coalesce.go.
func WithWriteCoalescing(window time.Duration, maxOps int) Option {
	return func(c *config) {
		c.coalesce = true
		c.coalWindow = window
		c.coalMaxOps = maxOps
	}
}

// New returns an http.Handler serving db with the given options.
func New(db *adcache.DB, opts ...Option) http.Handler {
	cfg := config{maxBodyBytes: 64 << 20}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxBodyBytes <= 0 {
		cfg.maxBodyBytes = 64 << 20
	}
	nShards := 1
	if cfg.src != nil {
		if m := cfg.src.Current(); m != nil {
			nShards = m.Shards
		}
	}
	s := &server{db: db, cfg: cfg, reg: db.Registry(), nShards: nShards}
	s.readHist = make([]*metrics.Histogram, nShards)
	s.writeHist = make([]*metrics.Histogram, nShards)
	s.shardStrs = make([]string, nShards)
	for i := 0; i < nShards; i++ {
		s.shardStrs[i] = strconv.Itoa(i)
		s.readHist[i] = s.reg.Histogram(fmt.Sprintf("http_shard_read_nanos{shard=%q}", s.shardStrs[i]),
			"Keyed read latency by hash slot.")
		s.writeHist[i] = s.reg.Histogram(fmt.Sprintf("http_shard_write_nanos{shard=%q}", s.shardStrs[i]),
			"Keyed write latency by hash slot.")
	}
	// Per-route series are precomputed into enum-indexed arrays so the
	// per-request cost is two array loads instead of two fmt.Sprintf
	// registry lookups.
	for rt := routeID(0); rt < nRoutes; rt++ {
		s.reqHist[rt] = s.reg.Histogram(fmt.Sprintf("http_request_nanos{route=%q}", routeNames[rt]),
			"HTTP request latency by route.")
		s.reqCount[rt] = s.reg.Counter(fmt.Sprintf("http_requests_total{route=%q}", routeNames[rt]),
			"HTTP requests served by route.")
	}
	if cfg.maxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.maxInFlight)
	}
	if cfg.coalesce && !cfg.readOnly {
		s.startCoalescer()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/kv/", s.handleKV)
	mux.HandleFunc("/v1/scan", s.handleScan)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/shardmap", s.handleShardMap)
	mux.HandleFunc("/v1/shardstats", s.handleShardStats)
	mux.HandleFunc("/v1/migrate", s.handleMigrate)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleDebugVars)
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return s.instrument(mux)
}

// epochStr caches the decimal form of the current map epoch so routing
// headers do not re-format it on every request.
type epochStr struct {
	e uint64
	s string
}

type server struct {
	db      *adcache.DB
	cfg     config
	reg     *metrics.Registry
	nShards int
	// Per-hash-slot latency histograms, the shard manager's signal.
	readHist  []*metrics.Histogram
	writeHist []*metrics.Histogram
	// shardStrs precomputes slot labels for routing headers.
	shardStrs []string
	// Enum-indexed per-route request metrics (see routeID).
	reqHist  [nRoutes]*metrics.Histogram
	reqCount [nRoutes]*metrics.Counter
	// epochCache holds the last-formatted epoch header value.
	epochCache atomic.Pointer[epochStr]
	// sem bounds in-flight data-plane requests when non-nil.
	sem chan struct{}
	// flight orders mutations against shard-map changes: every data-plane
	// mutation holds the read side from its ownership check through its
	// engine write, and installing a new map (the shard manager's fence)
	// takes the write side. A write therefore either commits entirely
	// before the fence is acknowledged — and is included in the
	// migration's copy — or starts after it and sees the new map's
	// ownership, answering WRONG_SHARD instead of acking a doomed write.
	flight sync.RWMutex
	// coal groups concurrent write requests when WithWriteCoalescing is
	// on (nil otherwise: writes apply inline); see coalesce.go.
	coal       *coalescer
	coalGroups *metrics.Counter
	coalOps    *metrics.Counter
	coalSize   *metrics.Histogram
}

// routeID classifies a request path into a bounded label set, so the
// metric cardinality cannot grow with the key space. The enum indexes the
// server's precomputed per-route metric arrays.
type routeID int

const (
	routeKV routeID = iota
	routeScan
	routeBatch
	routeStats
	routeShardMap
	routeShardStats
	routeMigrate
	routeHealth
	routeMetrics
	routeDebug
	routeOther
	nRoutes
)

var routeNames = [nRoutes]string{
	"kv", "scan", "batch", "stats", "shardmap", "shardstats", "migrate", "health", "metrics", "debug", "other",
}

func routeOf(path string) routeID {
	switch {
	case strings.HasPrefix(path, "/v1/kv/"):
		return routeKV
	case path == "/v1/scan":
		return routeScan
	case path == "/v1/batch":
		return routeBatch
	case path == "/v1/stats":
		return routeStats
	case path == "/v1/shardmap":
		return routeShardMap
	case path == "/v1/shardstats":
		return routeShardStats
	case path == "/v1/migrate":
		return routeMigrate
	case path == "/v1/health":
		return routeHealth
	case path == "/metrics":
		return routeMetrics
	case strings.HasPrefix(path, "/debug/"):
		return routeDebug
	default:
		return routeOther
	}
}

// dataRoute reports whether rt is subject to the concurrency limit.
func dataRoute(rt routeID) bool { return rt == routeKV || rt == routeScan || rt == routeBatch }

// instrument wraps next with per-route request counting, latency
// histograms, the data-plane concurrency limit, and the pooled
// timedWriter carrying the request's arrival time (taken before the
// concurrency-limit wait, so per-shard histograms include queueing delay
// — an overloaded node's slots then read hot to the shard manager even
// when pure handler time is tiny) and scratch buffers.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := routeOf(r.URL.Path)
		s.reqCount[rt].Inc()
		start := time.Now()
		if dataRoute(rt) {
			if s.sem != nil {
				s.sem <- struct{}{}
				defer func() { <-s.sem }()
			}
			if s.cfg.serviceTime > 0 {
				time.Sleep(s.cfg.serviceTime)
			}
		}
		tw := twPool.Get().(*timedWriter)
		tw.ResponseWriter, tw.start = w, start
		next.ServeHTTP(tw, r)
		tw.ResponseWriter = nil
		if cap(tw.body) > keepScratchBytes {
			tw.body = nil
		}
		if cap(tw.out) > keepScratchBytes {
			tw.out = nil
		}
		twPool.Put(tw)
		s.reqHist[rt].ObserveSince(start)
	})
}

// epoch returns the node's current map epoch (0 without a cluster).
func (s *server) epoch() uint64 {
	if s.cfg.src == nil {
		return 0
	}
	if m := s.cfg.src.Current(); m != nil {
		return m.Epoch
	}
	return 0
}

// epochString formats e once per epoch change and serves it from cache.
func (s *server) epochString(e uint64) string {
	if c := s.epochCache.Load(); c != nil && c.e == e {
		return c.s
	}
	str := strconv.FormatUint(e, 10)
	s.epochCache.Store(&epochStr{e: e, s: str})
	return str
}

// shardStr returns the cached slot label.
func (s *server) shardStr(shard int) string {
	if shard >= 0 && shard < len(s.shardStrs) {
		return s.shardStrs[shard]
	}
	return strconv.Itoa(shard)
}

// writeErr emits the typed error envelope (hand-encoded into the
// request's scratch buffer; shape identical to json.Marshal of
// api.Envelope, whose epoch field is omitempty).
func (s *server) writeErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	tw, buf := scratch(w)
	buf = append(buf, `{"code":"`...)
	buf = append(buf, code...)
	buf = append(buf, `","message":`...)
	buf = appendJSONString(buf, msg)
	if e := s.epoch(); e != 0 {
		buf = append(buf, `,"epoch":`...)
		buf = strconv.AppendUint(buf, e, 10)
	}
	buf = append(buf, '}', '\n')
	w.Write(buf)
	if tw != nil {
		tw.out = buf
	}
}

// deny reports (and handles) a mutating request arriving in read-only mode.
func (s *server) deny(w http.ResponseWriter) bool {
	if !s.cfg.readOnly {
		return false
	}
	s.writeErr(w, http.StatusForbidden, api.CodeReadOnly, "node is read-only")
	return true
}

// internalOK reports whether r authenticates as shard-manager traffic:
// the node must have a migration token configured and the request's
// HeaderInternal value must match it.
func (s *server) internalOK(r *http.Request) bool {
	tok := s.cfg.internalToken
	if tok == "" {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(api.HeaderInternal)), []byte(tok)) == 1
}

// shardHeaders stamps the routing headers for key on w and returns the
// key's slot under the current map (slot 0 without a cluster).
func (s *server) shardHeaders(w http.ResponseWriter, key []byte) int {
	if s.cfg.src == nil {
		return 0
	}
	m := s.cfg.src.Current()
	if m == nil {
		return 0
	}
	shard := m.Shard(key)
	h := w.Header()
	h.Set(api.HeaderEpoch, s.epochString(m.Epoch))
	h.Set(api.HeaderShard, s.shardStr(shard))
	if s.cfg.nodeID != "" {
		h.Set(api.HeaderNode, s.cfg.nodeID)
	}
	return shard
}

// checkOwned enforces shard ownership of key: when this node is cluster-
// configured and does not own the key's slot (and the request is not
// internal migration traffic), it answers 421 WRONG_SHARD carrying the
// node's current epoch and reports false.
func (s *server) checkOwned(w http.ResponseWriter, r *http.Request, key []byte, shard int) bool {
	if s.cfg.src == nil || s.internalOK(r) {
		return true
	}
	m := s.cfg.src.Current()
	if m == nil {
		return true
	}
	if owner := m.Owner[shard]; owner != s.cfg.nodeID {
		s.writeErr(w, http.StatusMisdirectedRequest, api.CodeWrongShard,
			fmt.Sprintf("shard %d owned by node %q", shard, owner))
		return false
	}
	return true
}

// observeShard records a keyed op's latency into the slot's read or
// write histogram (guarding against maps with more slots than this
// server was built with — the slot count is fixed per cluster).
func (s *server) observeShard(shard int, write bool, start time.Time) {
	if shard < 0 || shard >= s.nShards {
		return
	}
	if write {
		s.writeHist[shard].ObserveSince(start)
	} else {
		s.readHist[shard].ObserveSince(start)
	}
}

// readBody drains a size-capped request body into the request's pooled
// scratch buffer, classifying over-cap as 413 TOO_LARGE and transport
// errors as 400 BAD_BODY. The returned slice is valid until the handler
// returns (it is recycled with the request).
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := s.cfg.maxBodyBytes
	if r.ContentLength > limit {
		s.writeErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
			fmt.Sprintf("body exceeds %d bytes", limit))
		return nil, false
	}
	tw, _ := w.(*timedWriter)
	var buf []byte
	if tw != nil {
		buf = tw.body[:0]
	}
	if hint := r.ContentLength; hint > int64(cap(buf)) && hint <= limit {
		buf = make([]byte, 0, hint)
	}
	for {
		if int64(len(buf)) > limit {
			if tw != nil {
				tw.body = buf
			}
			s.writeErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
				fmt.Sprintf("body exceeds %d bytes", limit))
			return nil, false
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		space := buf[len(buf):cap(buf)]
		// Never read past limit+1: one extra byte distinguishes "exactly
		// at the cap" from "over it" without buffering an oversized body.
		if over := int64(len(buf)+len(space)) - (limit + 1); over > 0 {
			space = space[:int64(len(space))-over]
		}
		n, err := r.Body.Read(space)
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if tw != nil {
				tw.body = buf
			}
			if int64(len(buf)) > limit {
				s.writeErr(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
					fmt.Sprintf("body exceeds %d bytes", limit))
				return nil, false
			}
			return buf, true
		}
		if err != nil {
			if tw != nil {
				tw.body = buf
			}
			s.writeErr(w, http.StatusBadRequest, api.CodeBadBody, err.Error())
			return nil, false
		}
	}
}

func (s *server) handleKV(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/kv/")
	if key == "" {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadKey, "empty key")
		return
	}
	kb := []byte(key)
	shard := s.shardHeaders(w, kb)
	start := reqStart(w)
	switch r.Method {
	case http.MethodGet:
		if !s.checkOwned(w, r, kb, shard) {
			return
		}
		v, ok, err := s.db.Get(kb)
		s.observeShard(shard, false, start)
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		if !ok {
			s.writeErr(w, http.StatusNotFound, api.CodeNotFound, "key not found")
			return
		}
		w.Write(v)
	case http.MethodPut, http.MethodPost, http.MethodDelete:
		if s.deny(w) {
			return
		}
		// Body first, commit second: a slow request body must not hold the
		// flight lock open (it would let one slow client widen the fence
		// window arbitrarily).
		kind, value := wire.OpDelete, []byte(nil)
		if r.Method != http.MethodDelete {
			var ok bool
			if value, ok = s.readBody(w, r); !ok {
				return
			}
			kind = wire.OpPut
		}
		op := getCoalOp(s.internalOK(r))
		op.add(kind, kb, value, shard)
		s.commitWrite(w, op, start)
	default:
		s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method "+r.Method+" not allowed on /v1/kv/")
	}
}

// handleScan streams matching entries: results are encoded into the
// request's scratch buffer and flushed every scanFlushBytes, so a large
// scan reaches the client incrementally. JSON responses are a streamed
// array; with Accept: application/x-adcache-bin the response is a binary
// entry stream (wire.StreamDecoder consumes it). In both formats a
// response missing its terminator ("]" / the end frame) was cut off by a
// mid-stream engine error and must not be trusted as complete.
func (s *server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method "+r.Method+" not allowed on /v1/scan")
		return
	}
	q := r.URL.Query()
	startKey := q.Get("start")
	n := 16
	if raw := q.Get("n"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 || parsed > 10_000 {
			s.writeErr(w, http.StatusBadRequest, api.CodeBadLimit,
				fmt.Sprintf("n must be an integer in [1,10000], got %q", raw))
			return
		}
		n = parsed
	}
	end := q.Get("end")
	if end != "" && end <= startKey {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadLimit,
			fmt.Sprintf("end %q not after start %q", end, startKey))
		return
	}
	t0 := reqStart(w)
	binary := r.Header.Get("Accept") == wire.ContentType

	var m *cluster.ShardMap
	if s.cfg.src != nil {
		m = s.cfg.src.Current()
		if m != nil {
			w.Header().Set(api.HeaderEpoch, s.epochString(m.Epoch))
		}
		if s.cfg.nodeID != "" {
			w.Header().Set(api.HeaderNode, s.cfg.nodeID)
		}
	}

	it, err := s.db.NewIter()
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	defer it.Close()

	if binary {
		w.Header().Set("Content-Type", wire.ContentType)
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	tw, buf := scratch(w)
	if binary {
		buf = wire.AppendStreamHeader(buf)
	} else {
		buf = append(buf, '[')
	}

	// A scan touches many slots; charge it to the slot of its first
	// result (or the start key) — good enough for load attribution.
	slot := -1
	count := 0
	wrote := false
	ok := it.SeekGE([]byte(startKey))
	for ; ok && count < n; ok = it.Next() {
		k := it.Key()
		if end != "" && string(k) >= end {
			break
		}
		sh := 0
		if m != nil {
			sh = m.Shard(k)
			// Skip keys this node does not own under the current map (a
			// moved-away slot's leftover data must be invisible).
			if m.Owner[sh] != s.cfg.nodeID {
				continue
			}
		} else if s.nShards > 1 {
			sh = cluster.ShardOf(k, s.nShards)
		}
		if slot < 0 {
			slot = sh
		}
		if binary {
			buf = wire.AppendEntry(buf, k, it.Value())
		} else {
			if count > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"key":`...)
			buf = appendJSONBytes(buf, k)
			buf = append(buf, `,"value":`...)
			buf = appendJSONBytes(buf, it.Value())
			buf = append(buf, '}')
		}
		count++
		if len(buf) >= scanFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return
			}
			wrote = true
			buf = buf[:0]
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	}
	if err := it.Err(); err != nil {
		if !wrote {
			// Nothing sent yet: the error envelope can still go out whole.
			s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		// Mid-stream failure: stop without the terminator so the client
		// sees a truncated (invalid) response instead of a silent prefix.
		if tw != nil {
			tw.out = buf
		}
		return
	}
	if binary {
		buf = wire.AppendStreamEnd(buf)
	} else {
		buf = append(buf, ']', '\n')
	}
	w.Write(buf)
	if slot < 0 {
		slot = 0
		if s.nShards > 1 {
			slot = cluster.ShardOf([]byte(startKey), s.nShards)
		}
	}
	s.observeShard(slot, false, t0)
	if tw != nil {
		tw.out = buf
	}
}

// handleBatch applies a multi-op body atomically. The body is JSON
// ([]api.BatchOp) by default or the binary batch framing when
// Content-Type is application/x-adcache-bin. The whole body is staged as
// one write-pipeline op outside any lock — body-shape validation does
// not depend on the shard map, and slot indices are fixed for the
// cluster's lifetime — and applyGroup checks ownership of every staged
// slot at apply time, rejecting the batch whole if any slot is foreign.
// Keys and values alias the pooled request body; commitWrite blocks
// until the group commits, so the buffer outlives the apply.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method "+r.Method+" not allowed on /v1/batch")
		return
	}
	if s.deny(w) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	isBin := r.Header.Get("Content-Type") == wire.ContentType
	var ops []api.BatchOp
	var dec wire.BatchDecoder
	if isBin {
		if err := dec.Init(body); err != nil {
			s.writeErr(w, http.StatusBadRequest, api.CodeBadBody, err.Error())
			return
		}
	} else if err := json.Unmarshal(body, &ops); err != nil {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadBody, err.Error())
		return
	}
	var m *cluster.ShardMap
	if s.cfg.src != nil {
		if m = s.cfg.src.Current(); m != nil {
			w.Header().Set(api.HeaderEpoch, s.epochString(m.Epoch))
		}
	}
	op := getCoalOp(s.internalOK(r))
	bad := func(status int, code, msg string) {
		s.writeErr(w, status, code, msg)
		putCoalOp(op)
	}
	stage := func(i int, kind byte, kb, vb []byte) bool {
		if len(kb) == 0 {
			bad(http.StatusBadRequest, api.CodeBadKey, fmt.Sprintf("op %d: empty key", i))
			return false
		}
		shard := 0
		if m != nil {
			shard = m.Shard(kb)
		}
		op.add(kind, kb, vb, shard)
		return true
	}
	if isBin {
		for i := 0; ; i++ {
			kind, kb, vb, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				bad(http.StatusBadRequest, api.CodeBadBody, err.Error())
				return
			}
			if !stage(i, kind, kb, vb) {
				return
			}
		}
	} else {
		for i, o := range ops {
			var kind byte
			var vb []byte
			switch o.Op {
			case "put":
				kind, vb = wire.OpPut, []byte(o.Value)
			case "delete":
				kind = wire.OpDelete
			default:
				bad(http.StatusBadRequest, api.CodeBadOp,
					fmt.Sprintf("op %d: unknown %q (want put|delete)", i, o.Op))
				return
			}
			if !stage(i, kind, []byte(o.Key), vb) {
				return
			}
		}
	}
	s.commitWrite(w, op, reqStart(w))
}

// handleStats serves the DB's unified snapshot verbatim — one struct, one
// JSON shape, no per-strategy cases.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.db.Metrics())
}

// handleShardMap serves the node's current map and accepts newer epochs
// from the shard manager.
func (s *server) handleShardMap(w http.ResponseWriter, r *http.Request) {
	if s.cfg.src == nil {
		s.writeErr(w, http.StatusNotFound, api.CodeNotFound, "node is not cluster-configured")
		return
	}
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.cfg.src.Current())
	case http.MethodPost:
		applier, ok := s.cfg.src.(MapApplier)
		if !ok {
			s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				"node's map source is read-only")
			return
		}
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		var m cluster.ShardMap
		if err := json.Unmarshal(body, &m); err != nil {
			s.writeErr(w, http.StatusBadRequest, api.CodeBadMap, err.Error())
			return
		}
		// Installing a map is the migration fence: take the flight write
		// lock so every in-flight mutation that passed its ownership
		// check under the old map commits before the new map (and the
		// 204 that releases the shard manager to start copying) lands.
		s.flight.Lock()
		err := applier.Apply(&m)
		s.flight.Unlock()
		if err != nil {
			if m.Epoch < s.epoch() {
				s.writeErr(w, http.StatusConflict, api.CodeStaleEpoch, err.Error())
			} else {
				s.writeErr(w, http.StatusBadRequest, api.CodeBadMap, err.Error())
			}
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method "+r.Method+" not allowed on /v1/shardmap")
	}
}

// handleShardStats serves the per-slot cumulative latency histograms the
// shard manager polls.
func (s *server) handleShardStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method "+r.Method+" not allowed on /v1/shardstats")
		return
	}
	st := api.ShardStats{Node: s.cfg.nodeID, Epoch: s.epoch(), Shards: make([]api.ShardStat, s.nShards)}
	for i := 0; i < s.nShards; i++ {
		st.Shards[i] = api.ShardStat{
			Shard:  i,
			Reads:  s.readHist[i].Snapshot(),
			Writes: s.writeHist[i].Snapshot(),
		}
	}
	// Unified memory ledger (adaptive strategy only): lets the manager and
	// operators watch memory shift between memtables and the caches.
	if snap := s.db.Metrics(); snap.AdCache != nil {
		st.Budgets = make([]api.BudgetStat, 0, len(snap.AdCache.Budgets))
		for _, b := range snap.AdCache.Budgets {
			st.Budgets = append(st.Budgets, api.BudgetStat{
				Component:   b.Component,
				TargetBytes: b.TargetBytes,
				ActualBytes: b.ActualBytes,
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// parseShard extracts and bounds the ?shard= parameter.
func (s *server) parseShard(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("shard")
	shard, err := strconv.Atoi(raw)
	if err != nil || shard < 0 || shard >= s.nShards {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadShard,
			fmt.Sprintf("shard must be an integer in [0,%d), got %q", s.nShards, raw))
		return 0, false
	}
	return shard, true
}

// handleMigrate is the shard manager's bulk-transfer surface: export,
// bulk-load, and purge one hash slot. All verbs require the internal
// header — this is control-plane, not client API.
func (s *server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !s.internalOK(r) {
		s.writeErr(w, http.StatusForbidden, api.CodeForbidden,
			"migration requires a valid "+api.HeaderInternal+" token")
		return
	}
	shard, ok := s.parseShard(w, r)
	if !ok {
		return
	}
	switch r.Method {
	case http.MethodGet:
		entries, err := s.collectShard(shard)
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(entries)
	case http.MethodPost:
		if s.deny(w) {
			return
		}
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		var entries []api.MigrateEntry
		if err := json.Unmarshal(body, &entries); err != nil {
			s.writeErr(w, http.StatusBadRequest, api.CodeBadBody, err.Error())
			return
		}
		b := s.db.NewBatch()
		for _, e := range entries {
			b.Put(e.Key, e.Value)
		}
		if err := s.db.Apply(b); err != nil {
			s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		if s.deny(w) {
			return
		}
		if s.cfg.src != nil {
			if m := s.cfg.src.Current(); m != nil && m.Owner[shard] == s.cfg.nodeID {
				s.writeErr(w, http.StatusConflict, api.CodeOwnedShard,
					fmt.Sprintf("refusing to purge shard %d: still owned by this node", shard))
				return
			}
		}
		entries, err := s.collectShard(shard)
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		b := s.db.NewBatch()
		for _, e := range entries {
			b.Delete(e.Key)
		}
		if err := s.db.Apply(b); err != nil {
			s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method "+r.Method+" not allowed on /v1/migrate")
	}
}

// collectShard iterates the whole local keyspace collecting entries in
// slot shard. Hash partitioning scatters a slot across the key space, so
// this is a full scan — fine at reproduction scale; a range-partitioned
// map would make it a bounded scan.
func (s *server) collectShard(shard int) ([]api.MigrateEntry, error) {
	it, err := s.db.NewIter()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []api.MigrateEntry
	for ok := it.First(); ok; ok = it.Next() {
		k := it.Key()
		if cluster.ShardOf(k, s.nShards) != shard {
			continue
		}
		out = append(out, api.MigrateEntry{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), it.Value()...),
		})
	}
	return out, it.Err()
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleDebugVars serves the standard expvar payload (cmdline, memstats,
// and anything the process published) with the DB's registry snapshot
// appended under "adcache". The DB registry is merged here rather than
// expvar.Publish'ed because Publish is process-global and panics on
// duplicates — one process may run many DBs.
func (s *server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value.String())
	})
	snap, err := json.Marshal(s.db.Registry().Snapshot())
	if err != nil {
		snap = []byte("{}")
	}
	fmt.Fprintf(w, "%q: %s\n}\n", "adcache", snap)
}
