package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adcache/client"
	"adcache/internal/vfs"
	"adcache/internal/workload"
)

var testSpec = spec{
	name: "test", keys: 2000, skew: 0.9, mix: workload.Mix{GetPct: 100},
	cacheBytes: 1 << 20, nominalQPS: 200, dominant: kindGet, p99LimitMs: 5,
}

// testSession serves a small store, its handler wrapped by wrap.
func testSession(t *testing.T, tr *tracer, wrap func(http.Handler) http.Handler) *session {
	t.Helper()
	n, err := openNode(filepath.Join(t.TempDir(), "db"), testSpec, 2, tr, wrap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := n.close(); err != nil {
			t.Error(err)
		}
	})
	return &session{sp: testSpec, n: n, d: &loader{cl: n.cl, conns: 2, numKeys: testSpec.keys, fails: &failures{}, gen: testSpec.generatorFor(1)}}
}

func p99FromSend(recs []opRec) float64 {
	var xs []float64
	for _, r := range recs {
		xs = append(xs, float64(r.done-r.sent)/1e6)
	}
	sort.Float64s(xs)
	return quantile(xs, 0.99)
}

// A single 200 ms stall delays every op queued behind it on its
// connection. Timing from the due time puts that in p99; timing from the
// send time (coordinated omission) would see one slow op and miss it.
func TestOneStallShowsInP99(t *testing.T) {
	var served atomic.Int64
	stall := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/kv/") && served.Add(1) == 100 {
				time.Sleep(200 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	}
	s := testSession(t, nil, stall)
	recs, err := s.phase(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := summarize(recs, 500)
	if st.Failed != 0 {
		t.Fatalf("%d ops failed: %v", st.Failed, s.d.fails.first)
	}
	if p99 := st.Latency["get_p99"]; p99 < 100 {
		t.Errorf("get p99 from due time = %.2f ms, want >= 100 ms after a 200 ms stall", p99)
	}
	if p99 := p99FromSend(recs); p99 > 100 {
		t.Errorf("p99 from send time = %.2f ms; the stall should hit only one op that way", p99)
	}
}

// An injected delay in the handler must move get_p50_ms: the end-to-end
// gate can fail.
func TestHandlerDelayMovesP50(t *testing.T) {
	p50 := func(delay time.Duration) float64 {
		s := testSession(t, nil, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(delay)
				h.ServeHTTP(w, r)
			})
		})
		recs, err := s.phase(200, 1)
		if err != nil {
			t.Fatal(err)
		}
		return summarize(recs, 200).Latency["get_p50"]
	}
	base, slow := p50(0), p50(3*time.Millisecond)
	if slow-base < 2 {
		t.Errorf("get_p50 %.3f ms with a 3 ms handler delay vs %.3f ms without; want it at least 2 ms higher", slow, base)
	}
}

func TestCheckerFlagsWrongValuesAndScans(t *testing.T) {
	gen := testSpec.generatorFor(1)
	if !valueFor(7, gen.InitialValue(7)) || !valueFor(7, gen.Value(7)) {
		t.Fatal("generator values for key 7 rejected")
	}
	if valueFor(8, gen.InitialValue(7)) || valueFor(8, gen.Value(7)) {
		t.Error("value of key 7 accepted for key 8")
	}
	if valueFor(7, gen.Value(7)[:valueSize-1]) {
		t.Error("truncated value accepted")
	}
	kv := func(i int) client.KV { return client.KV{Key: workload.Key(i), Value: gen.InitialValue(i)} }
	if err := scanResult(10, 3, 100, []client.KV{kv(10), kv(11), kv(12)}); err != nil {
		t.Errorf("good scan rejected: %v", err)
	}
	if err := scanResult(98, 3, 100, []client.KV{kv(98), kv(99)}); err != nil {
		t.Errorf("scan ending at the last key rejected: %v", err)
	}
	bad := map[string][]client.KV{
		"misordered": {kv(10), kv(12), kv(11)},
		"repeated":   {kv(10), kv(10), kv(11)},
		"below":      {kv(9), kv(10), kv(11)},
		"short":      {kv(10), kv(11)},
		"wrong value": {kv(10), {Key: workload.Key(11), Value: gen.InitialValue(12)},
			kv(12)},
	}
	for name, kvs := range bad {
		if scanResult(10, 3, 100, kvs) == nil {
			t.Errorf("%s scan accepted", name)
		}
	}
}

func TestReadBackSetSkipsOverlappingPuts(t *testing.T) {
	put := func(idx int, sent, done int64, v string) opRec {
		return opRec{kind: kindPut, idx: idx, sent: sent, done: done, op: workload.Op{Value: []byte(v)}}
	}
	got := readBackSet([][]opRec{{
		put(1, 0, 10, "a"), put(1, 20, 30, "b"), // sequential: b wins
		put(2, 0, 10, "a"), put(2, 5, 15, "b"), // overlapping: skipped
		put(3, 0, 10, "a"),
	}})
	want := map[int]string{1: "b", 3: "a"}
	if len(got) != len(want) {
		t.Fatalf("read-back set %v, want %v", got, want)
	}
	for k, v := range want {
		if string(got[k]) != v {
			t.Errorf("key %d: %q, want %q", k, got[k], v)
		}
	}
}

// The timing FS must keep the no-copy read capability, as vfs.CountingFS
// does, or the traced run would leave the mmap read path.
func TestTimingFSKeepsNoCopyReads(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	fs := vfs.NewCounting(timingFS{FS: vfs.NewOS(), t: tr})
	name := filepath.Join(t.TempDir(), "000001.sst")
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello table")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	nc, ok := r.(vfs.NoCopyReaderAt)
	if !ok {
		t.Fatal("file opened through the timing FS lost vfs.NoCopyReaderAt")
	}
	p, err := nc.ReadAtNoCopy(6, 5)
	if err != nil || string(p) != "table" {
		t.Fatalf("ReadAtNoCopy = %q, %v", p, err)
	}
	for _, key := range []string{"sst.write", "sst.sync", "sst.read"} {
		if st := tr.ioStats()[key]; st == nil || st.n != 1 {
			t.Errorf("%s not recorded once: %+v", key, st)
		}
	}
	m, err := timingFS{FS: vfs.NewMem(), t: tr}.Create("x.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(vfs.NoCopyReaderAt); ok {
		t.Error("timing FS claims no-copy reads its file system lacks")
	}
}

// A traced phase links every attempt to its call and every handler to
// its attempt, so the layers add up to the call.
func TestTracedLayersAddUp(t *testing.T) {
	tr := newTracer()
	s := testSession(t, tr, nil)
	tr.on.Store(true)
	s.d.tr = tr
	recs, err := s.phase(200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	parts := attribute(tr.stop())
	if len(parts) != len(recs) {
		t.Fatalf("%d traced calls for %d ops", len(parts), len(recs))
	}
	var call, sum float64
	for _, p := range parts {
		if p.attempts != 1 || p.unmatchedHandler != 0 {
			t.Fatalf("call with %d attempts, %d without a handler span", p.attempts, p.unmatchedHandler)
		}
		call += p.call
		sum += p.self + p.wire + p.handler
	}
	if math.Abs(sum-call)/call > attributionTolerance {
		t.Errorf("layers sum to %.0f ns, calls to %.0f ns", sum, call)
	}
}

// BENCHMARK.json's metric lists, with their units, and its workloads are
// the ones this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var cfg struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	list := func(xs []entry) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = strings.TrimSpace(x.Name + " " + x.Unit)
		}
		return out
	}
	defs := func(ds []metricDef) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = d.name + " " + d.unit
		}
		return out
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", list(cfg.Workloads), specNames},
		{"end_to_end", list(cfg.EndToEnd), defs(e2eMetrics)},
		{"per_layer", list(cfg.PerLayer), defs(perLayerMetrics)},
	} {
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("BENCHMARK.json %s = %v, program reports %v", c.what, c.got, c.want)
		}
	}
}
