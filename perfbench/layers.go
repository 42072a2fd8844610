package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adcache/client"
	"adcache/internal/lsm"
	"adcache/internal/metrics"
)

// e2eMetrics and perLayerMetrics are BENCHMARK.json's end_to_end and
// per_layer lists, with their units: what the last output line carries
// with --trace 0 and --trace 1.
var (
	e2eMetrics = []metricDef{
		{"setup_s", "s"}, {"cpu_us_per_op", "us"}, {"space_amp", "ratio"}, {"peak_rss_mb", "MiB"},
	}
	perLayerMetrics = []metricDef{
		{"loadgen.lag_p99_ms", "ms"}, {"loadgen.achieved_qps", "1/s"},
		{"client.self_p50_us", "us"}, {"client.attempts_per_op", "ratio"}, {"client.retries", "count"},
		{"wire.overhead_p50_us", "us"}, {"wire.req_bytes_per_op", "B"}, {"wire.resp_bytes_per_op", "B"},
		{"wire.dials_per_op", "ratio"},
		{"server.handler_p50_us.get", "us"}, {"server.handler_p99_us.get", "us"},
		{"server.handler_p50_us.scan", "us"}, {"server.handler_p99_us.scan", "us"},
		{"server.handler_p50_us.put", "us"}, {"server.handler_p99_us.put", "us"}, {"server.self_us_per_op", "us"},
		{"server.inflight_max", "count"},
		{"lsm.get_p50_us", "us"}, {"lsm.get_p99_us", "us"}, {"lsm.commit_p50_us", "us"},
		{"lsm.commit_p99_us", "us"}, {"lsm.commit_wait_p50_us", "us"}, {"lsm.write_group_ops_mean", "ratio"},
		{"lsm.stall_s", "s"}, {"lsm.flushes", "count"}, {"lsm.flush_s", "s"}, {"lsm.compactions", "count"},
		{"lsm.compact_s", "s"}, {"lsm.write_amp", "ratio"}, {"lsm.query_block_reads_per_op", "ratio"},
		{"vfs.wal_write_p50_us", "us"}, {"vfs.wal_sync_p50_us", "us"}, {"vfs.wal_sync_p99_us", "us"},
		{"vfs.wal_syncs_per_put", "ratio"}, {"vfs.sst_read_p50_us", "us"}, {"vfs.sst_reads_per_op", "ratio"},
		{"vfs.sst_write_bytes_per_user_byte", "ratio"},
		{"cache.block_hit_rate", "ratio"}, {"cache.block_evictions_per_op", "ratio"},
		{"cache.range_get_hit_rate", "ratio"}, {"cache.range_scan_lookups_per_scan", "ratio"},
		{"cache.range_scan_hit_rate", "ratio"}, {"cache.range_partial_rate", "ratio"},
		{"cache.range_evictions_per_op", "ratio"}, {"cache.range_used_frac", "ratio"},
		{"cache.block_used_frac", "ratio"},
		{"core.windows_per_s", "1/s"}, {"core.windows_skipped", "count"}, {"core.agent_steps", "count"},
		{"core.range_ratio_final", "ratio"}, {"core.point_threshold_final", "ratio"},
		{"core.range_ratio_stddev", "ratio"},
		{"trace.read_p50_ms_off", "ms"}, {"trace.read_p50_ms_on", "ms"}, {"trace.overhead_frac", "ratio"},
		{"trace.attribution_err", "ratio"},
	}
)

// metricDef is a metric of the result line and the unit it is reported in.
type metricDef struct{ name, unit string }

// windowSize is core.Config's default control window, in ops.
const windowSize = 1000

// attributionTolerance bounds, per op kind, how far the mean client self
// + wire + server handler time may sit from the mean client call.
const attributionTolerance = 0.05

// maxSpansOut caps the spans written to disk; the metrics use them all.
const maxSpansOut = 50_000

// layerRow is one line of the per-layer table: a layer's mean self time
// per op of one kind. Aggregate rows are totals over all ops divided by
// the op count, with no per-op distribution.
type layerRow struct {
	Kind      string  `json:"kind"`
	Layer     string  `json:"layer"`
	Ops       int     `json:"ops"`
	MeanUs    float64 `json:"mean_us"`
	P50Us     float64 `json:"p50_us,omitempty"`
	Share     float64 `json:"share_of_call,omitempty"`
	Aggregate bool    `json:"aggregate,omitempty"`
}

// lsmHists are the engine's latency and size histograms the traced run
// differences.
var lsmHists = []string{
	"lsm_get_nanos", "lsm_scan_nanos", "lsm_commit_nanos", "lsm_commit_wait_nanos",
	"lsm_stall_nanos", "lsm_flush_nanos", "lsm_compact_nanos", "lsm_write_group_ops",
}

// layerSnap is the DB's and client's cumulative state at one instant.
type layerSnap struct {
	hist       map[string]metrics.HistogramSnapshot
	lsm        lsm.Metrics
	sstReads   int64
	cache      lsm.CacheCounters
	windows    int64
	agentSteps int64
	client     client.Stats
	at         time.Time
}

func snapshotLayers(n *node) layerSnap {
	reg := n.db.Registry()
	s := layerSnap{hist: map[string]metrics.HistogramSnapshot{}, at: time.Now()}
	for _, name := range lsmHists {
		s.hist[name] = reg.Histogram(name, "").Snapshot()
	}
	s.lsm = n.db.LSM().Metrics()
	s.sstReads = n.db.SSTReads()
	s.cache = n.db.CacheCounters()
	s.windows = n.db.AdCache().Windows()
	if v, ok := reg.Snapshot()["adcache_agent_steps_total"].(int64); ok {
		s.agentSteps = v
	}
	s.client = n.cl.Stats()
	return s
}

func histDelta(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max}
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	return d
}

// sampler calls fn once a second until done, collecting its values.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	vals []float64
}

func sampleEverySecond(fn func() float64) *sampler {
	p := &sampler{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.vals = append(p.vals, fn())
			}
		}
	}()
	return p
}

func (p *sampler) done() []float64 {
	close(p.stop)
	p.wg.Wait()
	return p.vals
}

func runTraced(sp spec, cfg runConfig, res *result, fails *failures) error {
	tr := newTracer()
	s, t, err := setUp(sp, cfg, 0, tr, fails)
	if err != nil {
		return err
	}
	defer s.n.close()
	res.Setups = []setupTime{t}
	res.Warmup = []phaseStats{summarize(s.hist[0], sp.nominalQPS)}
	res.Setup.Setups = 1

	// An untraced reference part, a third as long, runs first with every
	// wrapper installed but switched off, so the two parts differ only in
	// the recording itself; then the traced part runs for --seconds.
	off, err := s.phase(sp.nominalQPS, cfg.seconds/3)
	if err != nil {
		return err
	}
	before := snapshotLayers(s.n)
	params := sampleEverySecond(func() float64 { return s.n.db.AdCache().CurrentParams().RangeRatio })
	tr.reset()
	tr.on.Store(true)
	s.d.tr = tr
	on, err := s.phase(sp.nominalQPS, cfg.seconds)
	spans := tr.stop()
	s.d.tr = nil
	ratios := params.done()
	if err != nil {
		return err
	}
	after := snapshotLayers(s.n)

	offSt, onSt := summarize(off, sp.nominalQPS), summarize(on, sp.nominalQPS)
	res.Phases = map[string]phaseStats{"untraced": offSt, "traced": onSt}
	if offSt.lagGrows() || onSt.lagGrows() {
		res.Valid = false
	}
	if !perLayer(res, s.n, tr, spans, on, onSt, offSt, before, after, ratios) {
		fails.add(true, "attribution check: client self + wire + server handler is off the client call by more than %.0f%%, or a handler span is missing", attributionTolerance*100)
	}
	res.Attempted += s.attempted()
	verifyReadBack(s, res, fails)
	if err := writeSpans(cfg.outDir, res, spans); err != nil {
		return err
	}
	return s.n.close()
}

// opParts splits one client call into layers.
type opParts struct {
	kind                       string
	call, self, wire, handler  float64 // ns
	attempts, unmatchedHandler int
}

// attribute splits each traced call into client self time (the call
// minus its attempts, plus attempt time not blocked on the wire), wire
// time (blocked time minus the part the server handler covers) and the
// server handler's own span.
func attribute(spans []span) []opParts {
	calls := map[int64]span{}
	attempts := map[int64][]span{}
	handlers := map[int64]span{}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "client."):
			calls[s.ID] = s
		case s.Name == "http.attempt":
			attempts[s.Parent] = append(attempts[s.Parent], s)
		case strings.HasPrefix(s.Name, "server."):
			handlers[s.Parent] = s
		}
	}
	out := make([]opParts, 0, len(calls))
	for id, c := range calls {
		p := opParts{kind: strings.TrimPrefix(c.Name, "client."), call: float64(c.End - c.Start)}
		p.self = p.call
		for _, a := range attempts[id] {
			p.attempts++
			p.self -= float64(a.Blocked)
			h, ok := handlers[a.ID]
			if !ok {
				p.unmatchedHandler++
				p.wire += float64(a.Blocked)
				continue
			}
			cover := float64(min(a.End, h.End) - max(a.Start, h.Start))
			cover = math.Max(0, math.Min(cover, float64(a.Blocked)))
			p.wire += float64(a.Blocked) - cover
			p.handler += float64(h.End - h.Start)
		}
		out = append(out, p)
	}
	return out
}

func perLayer(res *result, n *node, tr *tracer, spans []span, on []opRec, onSt, offSt phaseStats, a, b layerSnap, ratios []float64) bool {
	m := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{v, unit}
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	ops := float64(len(on))
	var puts, scans float64
	for i := range on {
		switch on[i].kind {
		case kindPut:
			puts++
		case kindScan:
			scans++
		}
	}
	secs := b.at.Sub(a.at).Seconds()

	m("loadgen.lag_p99_ms", "ms", onSt.LagP99Ms)
	m("loadgen.achieved_qps", "1/s", onSt.AchievedQPS)

	parts := attribute(spans)
	var selfs, wires []float64
	attempts := 0
	byKind := map[string][]opParts{}
	for _, p := range parts {
		selfs = append(selfs, p.self)
		wires = append(wires, p.wire)
		attempts += p.attempts
		byKind[p.kind] = append(byKind[p.kind], p)
	}
	m("client.self_p50_us", "us", median(selfs)/1e3)
	m("client.attempts_per_op", "ratio", ratio(float64(attempts), float64(len(parts))))
	m("client.retries", "count", float64(b.client.RetryableErrors-a.client.RetryableErrors+b.client.WrongShardRetries-a.client.WrongShardRetries))
	m("wire.overhead_p50_us", "us", median(wires)/1e3)
	m("wire.req_bytes_per_op", "B", ratio(float64(tr.reqBytes.Load()), ops))
	m("wire.resp_bytes_per_op", "B", ratio(float64(tr.respBytes.Load()), ops))
	m("wire.dials_per_op", "ratio", ratio(float64(tr.dials.Load()), ops))

	var handlerNs float64
	byRoute := map[string][]float64{}
	for _, s := range spans {
		if route, ok := strings.CutPrefix(s.Name, "server."); ok {
			byRoute[route] = append(byRoute[route], float64(s.End-s.Start))
			handlerNs += float64(s.End - s.Start)
		}
	}
	for _, route := range []string{"get", "scan", "put"} {
		xs := byRoute[route]
		sort.Float64s(xs)
		m("server.handler_p50_us."+route, "us", quantile(xs, 0.5)/1e3)
		m("server.handler_p99_us."+route, "us", quantile(xs, 0.99)/1e3)
	}
	d := map[string]metrics.HistogramSnapshot{}
	for _, name := range lsmHists {
		d[name] = histDelta(a.hist[name], b.hist[name])
	}
	lsmNs := float64(d["lsm_get_nanos"].Sum + d["lsm_scan_nanos"].Sum + d["lsm_commit_nanos"].Sum)
	m("server.self_us_per_op", "us", ratio(handlerNs-lsmNs, ops)/1e3)
	m("server.inflight_max", "count", float64(tr.inflightMax.Load()))

	m("lsm.get_p50_us", "us", d["lsm_get_nanos"].Quantile(0.5)/1e3)
	m("lsm.get_p99_us", "us", d["lsm_get_nanos"].Quantile(0.99)/1e3)
	m("lsm.commit_p50_us", "us", d["lsm_commit_nanos"].Quantile(0.5)/1e3)
	m("lsm.commit_p99_us", "us", d["lsm_commit_nanos"].Quantile(0.99)/1e3)
	m("lsm.commit_wait_p50_us", "us", d["lsm_commit_wait_nanos"].Quantile(0.5)/1e3)
	m("lsm.write_group_ops_mean", "ratio", d["lsm_write_group_ops"].Mean())
	m("lsm.stall_s", "s", float64(d["lsm_stall_nanos"].Sum)/1e9)
	m("lsm.flushes", "count", float64(b.lsm.Flushes-a.lsm.Flushes))
	m("lsm.flush_s", "s", float64(d["lsm_flush_nanos"].Sum)/1e9)
	m("lsm.compactions", "count", float64(b.lsm.Compactions-a.lsm.Compactions))
	m("lsm.compact_s", "s", float64(d["lsm_compact_nanos"].Sum)/1e9)
	userBytes := float64(b.lsm.UserBytes - a.lsm.UserBytes)
	m("lsm.write_amp", "ratio", ratio(float64(b.lsm.FlushedBytes-a.lsm.FlushedBytes+b.lsm.CompactionOutBytes-a.lsm.CompactionOutBytes), userBytes))
	m("lsm.query_block_reads_per_op", "ratio", ratio(float64(b.sstReads-a.sstReads), ops))

	io := tr.ioStats()
	ioQ := func(key string, q float64) float64 {
		st := io[key]
		if st == nil {
			return 0
		}
		sort.Float64s(st.ns)
		return quantile(st.ns, q) / 1e3
	}
	ioN := func(key string) float64 {
		if st := io[key]; st != nil {
			return float64(st.n)
		}
		return 0
	}
	m("vfs.wal_write_p50_us", "us", ioQ("wal.write", 0.5))
	m("vfs.wal_sync_p50_us", "us", ioQ("wal.sync", 0.5))
	m("vfs.wal_sync_p99_us", "us", ioQ("wal.sync", 0.99))
	m("vfs.wal_syncs_per_put", "ratio", ratio(ioN("wal.sync"), puts))
	m("vfs.sst_read_p50_us", "us", ioQ("sst.read", 0.5))
	m("vfs.sst_reads_per_op", "ratio", ratio(ioN("sst.read"), ops))
	sstWritten := 0.0
	if st := io["sst.write"]; st != nil {
		sstWritten = float64(st.bytes)
	}
	m("vfs.sst_write_bytes_per_user_byte", "ratio", ratio(sstWritten, userBytes))

	c0, c1 := a.cache, b.cache
	blockLookups := float64(c1.BlockHits - c0.BlockHits + c1.BlockMisses - c0.BlockMisses)
	m("cache.block_hit_rate", "ratio", ratio(float64(c1.BlockHits-c0.BlockHits), blockLookups))
	m("cache.block_evictions_per_op", "ratio", ratio(float64(c1.BlockEvictions-c0.BlockEvictions), ops))
	m("cache.range_get_hit_rate", "ratio", ratio(float64(c1.RangeGetHits-c0.RangeGetHits), float64(c1.RangeGetHits-c0.RangeGetHits+c1.RangeGetMisses-c0.RangeGetMisses)))
	scanLookups := float64(c1.RangeScanHits - c0.RangeScanHits + c1.RangeScanMisses - c0.RangeScanMisses)
	m("cache.range_scan_lookups_per_scan", "ratio", ratio(scanLookups, scans))
	m("cache.range_scan_hit_rate", "ratio", ratio(float64(c1.RangeScanHits-c0.RangeScanHits), scanLookups))
	m("cache.range_partial_rate", "ratio", ratio(float64(c1.RangePartials-c0.RangePartials), scanLookups))
	m("cache.range_evictions_per_op", "ratio", ratio(float64(c1.RangeEvictions-c0.RangeEvictions), ops))
	m("cache.range_used_frac", "ratio", ratio(float64(c1.RangeUsed), float64(c1.RangeCapacity)))
	m("cache.block_used_frac", "ratio", ratio(float64(c1.BlockUsed), float64(c1.BlockCapacity)))

	windows := float64(b.windows - a.windows)
	params := n.db.AdCache().CurrentParams()
	m("core.windows_per_s", "1/s", ratio(windows, secs))
	m("core.windows_skipped", "count", ops/windowSize-windows)
	m("core.agent_steps", "count", float64(b.agentSteps-a.agentSteps))
	m("core.range_ratio_final", "ratio", params.RangeRatio)
	m("core.point_threshold_final", "ratio", params.PointThreshold)
	m("core.range_ratio_stddev", "ratio", stddev(ratios))

	m("trace.read_p50_ms_off", "ms", offSt.Latency["read_p50"])
	m("trace.read_p50_ms_on", "ms", onSt.Latency["read_p50"])
	m("trace.overhead_frac", "ratio", ratio(onSt.Latency["read_p50"], offSt.Latency["read_p50"])-1)

	// The per-layer table and the attribution check.
	worst := 0.0
	ok := true
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ps := byKind[k]
		col := func(f func(opParts) float64) (mean, p50 float64) {
			xs := make([]float64, len(ps))
			sum := 0.0
			for i, p := range ps {
				xs[i] = f(p)
				sum += xs[i]
			}
			return sum / float64(len(xs)), median(xs)
		}
		callMean, callP50 := col(func(p opParts) float64 { return p.call })
		rows := []struct {
			layer string
			f     func(opParts) float64
		}{
			{"client self", func(p opParts) float64 { return p.self }},
			{"wire", func(p opParts) float64 { return p.wire }},
			{"server handler", func(p opParts) float64 { return p.handler }},
		}
		sum := 0.0
		for _, r := range rows {
			mean, p50 := col(r.f)
			sum += mean
			res.Layers = append(res.Layers, layerRow{Kind: k, Layer: r.layer, Ops: len(ps), MeanUs: mean / 1e3, P50Us: p50 / 1e3, Share: ratio(mean, callMean)})
		}
		res.Layers = append(res.Layers, layerRow{Kind: k, Layer: "client call", Ops: len(ps), MeanUs: callMean / 1e3, P50Us: callP50 / 1e3, Share: 1})
		errFrac := math.Abs(sum-callMean) / callMean
		worst = math.Max(worst, errFrac)
		unmatched := 0
		for _, p := range ps {
			unmatched += p.unmatchedHandler
		}
		if errFrac > attributionTolerance || unmatched > 0 {
			ok = false
		}
	}
	// Below the handler only aggregates exist: engine time comes from the
	// registry and file time from the timing FS, neither tied to a request.
	ioNs := func(keys ...string) float64 {
		sum := 0.0
		for _, k := range keys {
			if st := io[k]; st != nil {
				for _, d := range st.ns {
					sum += d
				}
			}
		}
		return sum
	}
	for _, row := range []struct {
		layer string
		ns    float64
	}{
		{"server self (handler - lsm)", handlerNs - lsmNs},
		{"lsm get+scan+commit", lsmNs},
		{"vfs wal write+sync", ioNs("wal.write", "wal.sync")},
		{"vfs sst read", ioNs("sst.read")},
		{"vfs sst write+sync (background)", ioNs("sst.write", "sst.sync")},
	} {
		res.Layers = append(res.Layers, layerRow{Kind: "all", Layer: row.layer, Ops: len(on), MeanUs: ratio(row.ns, ops) / 1e3, Aggregate: true})
	}
	m("trace.attribution_err", "ratio", worst)
	return ok
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

func writeSpans(dir string, res *result, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if len(spans) > maxSpansOut {
		spans = spans[:maxSpansOut]
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", res.Workload, res.Seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
