package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adcache/internal/vfs"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Req, the ID of its client call span.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Blocked, on an http.attempt span, is the part of the attempt the
	// client spent waiting on the wire: the round trip up to response
	// headers plus the time inside body reads. The rest of the attempt is
	// client work on bytes it already holds, such as decoding a streamed
	// scan, and counts as client self time.
	Blocked int64 `json:"blocked_ns,omitempty"`
}

// Headers carrying the trace context from the client's attempt to the
// server middleware.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

type ctxKey struct{}

// tracer records spans and counters at the public seams it wraps: the
// client call (load generator), each HTTP attempt (transport), the server handler
// (middleware), every connection (dialer) and every file (vfs.FS). Its
// wrappers stay installed for the whole run and record only while on.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	dials, reqBytes, respBytes atomic.Int64
	inflight, inflightMax      atomic.Int64

	ioMu sync.Mutex
	io   map[string]*ioStat // by "<class>.<op>", e.g. "wal.sync"
}

// ioStat accumulates one kind of file operation.
type ioStat struct {
	n     int64
	bytes int64
	ns    []float64
}

func newTracer() *tracer { return &tracer{io: map[string]*ioStat{}} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginCall allocates the ID of a client call span and carries it in ctx
// to the transport.
func (t *tracer) beginCall(ctx context.Context) (context.Context, int64) {
	id := t.nextID.Add(1)
	return context.WithValue(ctx, ctxKey{}, id), id
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.ioMu.Lock()
	t.io = map[string]*ioStat{}
	t.ioMu.Unlock()
	for _, c := range []*atomic.Int64{&t.dials, &t.reqBytes, &t.respBytes, &t.inflightMax} {
		c.Store(0)
	}
}

// transport wraps base so each attempt records an http.attempt span and
// forwards the trace context in headers.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		call, _ := req.Context().Value(ctxKey{}).(int64)
		if call == 0 || !t.on.Load() {
			return base.RoundTrip(req)
		}
		id := t.nextID.Add(1)
		req = req.Clone(req.Context())
		req.Header.Set(hdrReq, strconv.FormatInt(call, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		sp := span{Name: "http.attempt", ID: id, Parent: call, Req: call, Start: nowNs()}
		resp, err := base.RoundTrip(req)
		now := nowNs()
		sp.Blocked = now - sp.Start
		if err != nil {
			sp.End = now
			t.add(sp)
			return nil, err
		}
		resp.Body = &timedBody{ReadCloser: resp.Body, t: t, sp: sp}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// timedBody ends its attempt span at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	done bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := nowNs()
	n, err := b.ReadCloser.Read(p)
	end := nowNs()
	b.sp.Blocked += end - start
	if err != nil {
		b.finish(end)
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish(nowNs())
	return err
}

func (b *timedBody) finish(end int64) {
	if !b.done {
		b.done = true
		b.sp.End = end
		b.t.add(b.sp)
	}
}

// middleware wraps the server's handler with a server.<route> span.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		n := t.inflight.Add(1)
		for m := t.inflightMax.Load(); n > m && !t.inflightMax.CompareAndSwap(m, n); m = t.inflightMax.Load() {
		}
		start := nowNs()
		next.ServeHTTP(w, r)
		end := nowNs()
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		t.add(span{Name: "server." + routeName(r), ID: t.nextID.Add(1), Parent: parent, Req: req, Start: start, End: end})
		t.inflight.Add(-1)
	})
}

// stop switches recording off and returns the spans once every handler
// that started while on has recorded its span: a client can hold its
// response before the handler's goroutine returns.
func (t *tracer) stop() []span {
	t.on.Store(false)
	for deadline := time.Now().Add(5 * time.Second); t.inflight.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func routeName(r *http.Request) string {
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/kv/") && r.Method == http.MethodGet:
		return "get"
	case strings.HasPrefix(r.URL.Path, "/v1/kv/"):
		return "put"
	case r.URL.Path == "/v1/scan":
		return "scan"
	}
	return "other"
}

// dial wraps a dialer so connections count dials and bytes on the wire.
func (t *tracer) dial(base func(ctx context.Context, network, addr string) (net.Conn, error)) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := base(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		if t.on.Load() {
			t.dials.Add(1)
		}
		return &countingConn{Conn: c, t: t}, nil
	}
}

type countingConn struct {
	net.Conn
	t *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.t.respBytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		c.t.reqBytes.Add(int64(n))
	}
	return n, err
}

// fileClass names what an engine file holds, from its name.
func fileClass(name string) string {
	base := path.Base(name)
	switch {
	case strings.HasSuffix(base, ".log"):
		return "wal"
	case strings.HasSuffix(base, ".sst"):
		return "sst"
	case strings.HasPrefix(base, "MANIFEST"):
		return "manifest"
	}
	return "other"
}

func (t *tracer) observeIO(class, op string, bytes int, start int64) {
	if !t.on.Load() {
		return
	}
	d := float64(nowNs() - start)
	key := class + "." + op
	t.ioMu.Lock()
	st := t.io[key]
	if st == nil {
		st = &ioStat{}
		t.io[key] = st
	}
	st.n++
	st.bytes += int64(bytes)
	st.ns = append(st.ns, d)
	t.ioMu.Unlock()
}

// ioStats copies the file-operation records: background flushes and
// compactions can still be writing after recording stops.
func (t *tracer) ioStats() map[string]*ioStat {
	t.ioMu.Lock()
	defer t.ioMu.Unlock()
	out := make(map[string]*ioStat, len(t.io))
	for k, st := range t.io {
		out[k] = &ioStat{n: st.n, bytes: st.bytes, ns: append([]float64(nil), st.ns...)}
	}
	return out
}

// timingFS times every read, write and sync made through the files it
// opens, by file class.
type timingFS struct {
	vfs.FS
	t *tracer
}

func (fs timingFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return fs.wrap(name, f), nil
}

func (fs timingFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return fs.wrap(name, f), nil
}

// wrap keeps the no-copy read capability when the file has it, as
// vfs.CountingFS does: the engine probes for it by type assertion, and
// losing it would move the traced run off the mmap read path.
func (fs timingFS) wrap(name string, f vfs.File) vfs.File {
	tf := timedFile{File: f, t: fs.t, class: fileClass(name)}
	if nc, ok := f.(vfs.NoCopyReaderAt); ok {
		return &timedFileNoCopy{timedFile: tf, nc: nc}
	}
	return &tf
}

type timedFile struct {
	vfs.File
	t     *tracer
	class string
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	start := nowNs()
	n, err := f.File.ReadAt(p, off)
	f.t.observeIO(f.class, "read", n, start)
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := nowNs()
	n, err := f.File.Write(p)
	f.t.observeIO(f.class, "write", n, start)
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	start := nowNs()
	n, err := f.File.WriteAt(p, off)
	f.t.observeIO(f.class, "write", n, start)
	return n, err
}

func (f *timedFile) Sync() error {
	start := nowNs()
	err := f.File.Sync()
	f.t.observeIO(f.class, "sync", 0, start)
	return err
}

type timedFileNoCopy struct {
	timedFile
	nc vfs.NoCopyReaderAt
}

func (f *timedFileNoCopy) ReadAtNoCopy(off, n int64) ([]byte, error) {
	start := nowNs()
	p, err := f.nc.ReadAtNoCopy(off, n)
	f.t.observeIO(f.class, "read", len(p), start)
	return p, err
}
