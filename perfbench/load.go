package main

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"adcache/client"
	"adcache/internal/workload"
)

// epoch is the time base of every timestamp the benchmark records.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// opRec is one scheduled operation and what became of it. Times are
// nanoseconds since epoch; due is the intended send time.
type opRec struct {
	op     workload.Op
	idx    int // key index of op.Key
	kind   opKind
	due    int64
	sent   int64
	done   int64
	failed bool
}

// plan draws the ops of a phase that offers rate ops/s for seconds.
func plan(gen *workload.Generator, mix workload.Mix, rate, seconds float64) []opRec {
	recs := make([]opRec, int(rate*seconds+0.5))
	for i := range recs {
		op := gen.Next(mix)
		idx, _ := keyIndex(op.Key)
		recs[i] = opRec{op: op, idx: idx, kind: kindOf(op.Kind)}
	}
	return recs
}

// loader sends scheduled ops through the public client.
type loader struct {
	cl      *client.Client
	conns   int
	numKeys int
	fails   *failures
	tr      *tracer             // nil when the phase is untraced
	gen     *workload.Generator // the run's one op stream
}

// run executes recs open-loop at rate ops/s, wrk2-style. Reads go to one
// connection and writes to the other, and each connection keeps its own
// fixed-interval schedule: its k-th op is due at start + k/(its share of
// rate). A connection that falls behind sends its next op at once; its
// latency still counts from the due time, so a stall shows in every op
// it delays (no coordinated omission).
func (d *loader) run(recs []opRec, rate float64) error {
	lanes := d.lanes(recs)
	start := nowNs() + int64(time.Millisecond)
	for _, lane := range lanes {
		interval := float64(time.Second) / (rate * float64(len(lane)) / float64(len(recs)))
		for k, i := range lane {
			recs[i].due = start + int64(float64(k)*interval)
		}
	}
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for c, lane := range lanes {
		wg.Add(1)
		go func(c int, lane []int) {
			defer wg.Done()
			errs[c] = d.connection(recs, lane)
		}(c, lane)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// lanes assigns each op to a connection: with two or more, reads to the
// first and writes to the second, so a read never waits on the client
// side behind a write's WAL fsync, whose cost on a shared disk swings by
// an order of magnitude from minute to minute; with one, everything to it.
func (d *loader) lanes(recs []opRec) [][]int {
	var reads, writes []int
	for i := range recs {
		if d.conns >= 2 && recs[i].kind == kindPut {
			writes = append(writes, i)
		} else {
			reads = append(reads, i)
		}
	}
	var lanes [][]int
	for _, l := range [][]int{reads, writes} {
		if len(l) > 0 {
			lanes = append(lanes, l)
		}
	}
	return lanes
}

// connection runs the ops of one lane in order.
func (d *loader) connection(recs []opRec, lane []int) error {
	s, err := newSleeper()
	if err != nil {
		return err
	}
	defer s.close()
	for _, i := range lane {
		r := &recs[i]
		if wait := r.due - nowNs(); wait > 0 {
			if err := s.sleep(time.Duration(wait)); err != nil {
				return err
			}
		}
		r.sent = nowNs()
		r.failed = !d.exec(r)
		r.done = nowNs()
	}
	return nil
}

func (d *loader) exec(r *opRec) bool {
	ctx := context.Background()
	if d.tr == nil {
		return d.do(ctx, r)
	}
	ctx, id := d.tr.beginCall(ctx)
	start := nowNs()
	ok := d.do(ctx, r)
	d.tr.add(span{Name: "client." + kindNames[r.kind], ID: id, Req: id, Start: start, End: nowNs()})
	return ok
}

func (d *loader) do(ctx context.Context, r *opRec) bool {
	switch r.kind {
	case kindGet:
		v, found, err := d.cl.GetCtx(ctx, r.op.Key)
		switch {
		case err != nil:
			d.fails.add(false, "get %s: %v", r.op.Key, err)
		case !found:
			d.fails.add(true, "get %s: not found", r.op.Key)
		case !valueFor(r.idx, v):
			d.fails.add(true, "get %s: value %.30q does not name the key", r.op.Key, v)
		default:
			return true
		}
	case kindPut:
		if err := d.cl.PutCtx(ctx, r.op.Key, r.op.Value); err != nil {
			d.fails.add(false, "put %s: %v", r.op.Key, err)
			return false
		}
		return true
	case kindScan:
		kvs, err := d.cl.ScanCtx(ctx, r.op.Key, nil, r.op.ScanLen)
		if err != nil {
			d.fails.add(false, "scan %s: %v", r.op.Key, err)
			return false
		}
		if err := scanResult(r.idx, r.op.ScanLen, d.numKeys, kvs); err != nil {
			d.fails.add(true, "%v", err)
			return false
		}
		return true
	}
	return false
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (0 for an empty sample).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	if math.IsInf(sorted[lo+1], 1) && frac > 0 {
		return math.Inf(1)
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies returns the sorted due-to-done latencies, in ms, of the ops
// of the given kinds. A failed op counts as +Inf when failedAsMiss is set
// (it misses any latency limit) and is left out otherwise.
func latencies(recs []opRec, failedAsMiss bool, kinds ...opKind) []float64 {
	var out []float64
	for i := range recs {
		r := &recs[i]
		if !hasKind(kinds, r.kind) {
			continue
		}
		switch {
		case !r.failed:
			out = append(out, float64(r.done-r.due)/1e6)
		case failedAsMiss:
			out = append(out, math.Inf(1))
		}
	}
	sort.Float64s(out)
	return out
}

func hasKind(kinds []opKind, k opKind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// lagMs returns the median generator lag (sent - due, ms) over the first
// and the last quarter of recs, and the lag p99 over all of them.
func lagMs(recs []opRec) (first, last, p99 float64) {
	lag := func(rs []opRec) []float64 {
		out := make([]float64, len(rs))
		for i := range rs {
			out[i] = float64(rs[i].sent-rs[i].due) / 1e6
		}
		sort.Float64s(out)
		return out
	}
	q := len(recs) / 4
	return quantile(lag(recs[:q]), 0.5), quantile(lag(recs[len(recs)-q:]), 0.5), quantile(lag(recs), 0.99)
}

// lagGrowthMs is how much the median generator lag may rise from a
// phase's first quarter to its last before the backlog counts as growing.
const lagGrowthMs = 1.0

// phaseStats summarises one phase: per-kind latency quantiles (ms, from
// the due time), generator lag and achieved rate.
type phaseStats struct {
	Rate        float64            `json:"offered_qps"`
	Ops         int                `json:"ops"`
	Failed      int                `json:"failed"`
	AchievedQPS float64            `json:"achieved_qps"`
	LagFirstMs  float64            `json:"lag_p50_first_quarter_ms"`
	LagLastMs   float64            `json:"lag_p50_last_quarter_ms"`
	LagP99Ms    float64            `json:"lag_p99_ms"`
	Latency     map[string]float64 `json:"latency_ms"`
	Count       map[string]int     `json:"count"`
}

// readKinds are the ops the read_* metrics pool.
var readKinds = []opKind{kindGet, kindScan}

func summarize(recs []opRec, rate float64) phaseStats {
	st := phaseStats{Rate: rate, Ops: len(recs), Latency: map[string]float64{}, Count: map[string]int{}}
	series := map[string][]opKind{"read": readKinds}
	for k := opKind(0); k < nKinds; k++ {
		series[kindNames[k]] = []opKind{k}
	}
	for name, kinds := range series {
		lat := latencies(recs, false, kinds...)
		if len(lat) == 0 {
			continue
		}
		st.Count[name] = len(lat)
		st.Latency[name+"_p50"] = quantile(lat, 0.50)
		st.Latency[name+"_p90"] = quantile(lat, 0.90)
		st.Latency[name+"_p99"] = quantile(lat, 0.99)
	}
	var first, last int64
	for i := range recs {
		r := &recs[i]
		if r.failed {
			st.Failed++
		}
		if i == 0 || r.due < first {
			first = r.due
		}
		if r.done > last {
			last = r.done
		}
	}
	if last > first {
		st.AchievedQPS = float64(len(recs)-st.Failed) / (float64(last-first) / 1e9)
	}
	st.LagFirstMs, st.LagLastMs, st.LagP99Ms = lagMs(recs)
	return st
}

func (st phaseStats) lagGrows() bool { return st.LagLastMs-st.LagFirstMs > lagGrowthMs }

// measureStep summarises a phase sent at rate as a max_qps ladder step.
// The step holds when the dominant op's p99, with failed ops counted as
// misses, is within the workload's limit; at most 0.1% of ops failed;
// and the backlog did not grow.
func measureStep(recs []opRec, rate float64, sp spec) ladderStep {
	st := summarize(recs, rate)
	p99 := quantile(latencies(recs, true, sp.dominant), 0.99)
	return ladderStep{
		phaseStats:    st,
		DominantP99Ms: p99,
		Meets:         p99 <= sp.p99LimitMs && float64(st.Failed) <= 0.001*float64(st.Ops) && !st.lagGrows(),
	}
}
