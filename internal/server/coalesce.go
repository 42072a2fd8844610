package server

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
	"adcache/internal/lsm"
)

// The write pipeline: every engine write on /v1/kv and /v1/batch.
//
// A write handler reads its body, validates it, and stages the request as
// one coalOp — a single-op PUT/DELETE carries one entry, a batch body one
// entry per op. commitWrite then hands the op to one of two schedulers:
//
//   - inline (the default): the op is applied as a group of one on the
//     handler goroutine;
//   - the coalescer (WithWriteCoalescing): a dedicated goroutine groups
//     the ops queued within a bounded window (or until the op budget
//     fills), so concurrent requests share one flight-RLock hold and one
//     engine Apply, and the engine's write-group commit folds the group
//     into a single WAL append + fsync — the cross-request analogue of
//     the engine-level group commit.
//
// Either way applyGroup is the only code that writes to the engine, and
// commitWrite the only code that acks. The fence/migration invariant
// therefore lives in one place:
//
//   - Each request's ownership is checked inside the flight-RLock hold,
//     against the map current at apply time. A request staged before a
//     fence but applied after it sees the new map and is answered
//     WRONG_SHARD instead of being written into a slot this node no
//     longer owns. A batch is rejected whole if any of its ops' slots
//     moved: none of its entries reach the engine batch, so a batch
//     commits all-or-nothing.
//   - A request is acked (204) only after its group's Apply has returned
//     while the RLock was held. The fence takes the write lock, so by the
//     time the fence's 204 releases the shard manager to copy, every
//     write acked under the old map is durably committed and included in
//     the copy. TestFenceWriteRace and TestFenceWriteRaceCoalesced pin
//     this for each scheduler.
//
// Durability: Apply returns only after the WAL commit, and every request
// in the group is acked strictly after that return.

// coalOp is one staged write request plus its result slots. The parallel
// slices keep their capacity across pool round-trips; the done channel
// is 1-buffered and reused.
type coalOp struct {
	kinds    []byte // wire.OpPut or wire.OpDelete, per entry
	keys     [][]byte
	values   [][]byte
	shards   []int
	internal bool // authenticated shard-manager traffic bypasses ownership

	wrongShard bool
	shard      int // offending slot when wrongShard
	owner      string
	err        error
	done       chan struct{}
}

var coalOpPool = sync.Pool{New: func() any { return &coalOp{done: make(chan struct{}, 1)} }}

// getCoalOp returns an empty pooled op, keeping slice capacity.
func getCoalOp(internal bool) *coalOp {
	op := coalOpPool.Get().(*coalOp)
	op.kinds = op.kinds[:0]
	op.keys = op.keys[:0]
	op.values = op.values[:0]
	op.shards = op.shards[:0]
	op.internal = internal
	op.wrongShard, op.shard = false, 0
	return op
}

// putCoalOp drops the body aliases (keys and values point into pooled
// request buffers) so the pooled op cannot pin them, and recycles op.
func putCoalOp(op *coalOp) {
	for i := range op.keys {
		op.keys[i], op.values[i] = nil, nil
	}
	op.owner, op.err = "", nil
	coalOpPool.Put(op)
}

// add stages one entry on the request.
func (op *coalOp) add(kind byte, key, value []byte, shard int) {
	op.kinds = append(op.kinds, kind)
	op.keys = append(op.keys, key)
	op.values = append(op.values, value)
	op.shards = append(op.shards, shard)
}

// coalescer carries the queue and the bounds of one server's write
// coalescing. maxOps bounds the total entries staged per group, not the
// request count, so batch bodies fill a group proportionally faster.
type coalescer struct {
	ch     chan *coalOp
	window time.Duration
	maxOps int
}

// startCoalescer resolves the configured bounds and launches the
// coalescing goroutine. The goroutine lives as long as the server (the
// server has no Close; one parked goroutine per coalescing server is the
// accepted cost).
func (s *server) startCoalescer() {
	maxOps := s.cfg.coalMaxOps
	if maxOps <= 0 {
		maxOps = 128
	}
	window := s.cfg.coalWindow
	if window < 0 {
		window = 0
	}
	s.coal = &coalescer{ch: make(chan *coalOp, 4*maxOps), window: window, maxOps: maxOps}
	s.coalGroups = s.reg.Counter("http_coalesce_groups_total",
		"Coalesced write groups applied.")
	s.coalOps = s.reg.Counter("http_coalesced_ops_total",
		"Write ops routed through the coalescer.")
	s.coalSize = s.reg.Histogram("http_coalesce_group_size",
		"Ops per coalesced write group.")
	go s.runCoalescer()
}

// commitWrite applies a staged request — queued on the coalescer, or
// inline as a group of one — blocks until its group commits, writes the
// request's individual outcome, and recycles op. Keys and values may
// alias the request's pooled body buffer: the handler blocks here until
// the group is done, so the buffer cannot be recycled out from under the
// coalescer.
func (s *server) commitWrite(w http.ResponseWriter, op *coalOp, start time.Time) {
	if s.coal != nil {
		s.coal.ch <- op
	} else {
		group := [1]*coalOp{op}
		s.applyGroup(group[:])
	}
	<-op.done
	switch {
	case op.wrongShard:
		s.writeErr(w, http.StatusMisdirectedRequest, api.CodeWrongShard,
			fmt.Sprintf("shard %d owned by node %q", op.shard, op.owner))
	case op.err != nil:
		s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, op.err.Error())
	default:
		// Observe each touched slot once; the set is a fixed array unless
		// the cluster runs more slots than the default.
		var touchedArr [cluster.DefaultShards]bool
		touched := touchedArr[:]
		if s.nShards > len(touched) {
			touched = make([]bool, s.nShards)
		}
		for _, sh := range op.shards {
			if sh < len(touched) && !touched[sh] {
				touched[sh] = true
				s.observeShard(sh, true, start)
			}
		}
		w.WriteHeader(http.StatusNoContent)
	}
	putCoalOp(op)
}

// runCoalescer is the group-forming loop: take one request, wait up to
// window for more (reusing one timer), top the group up with whatever is
// already queued, and apply. n tracks staged entries against maxOps.
func (s *server) runCoalescer() {
	c := s.coal
	group := make([]*coalOp, 0, c.maxOps)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for op := range c.ch {
		group = append(group[:0], op)
		n := len(op.kinds)
		if c.window > 0 {
			timer.Reset(c.window)
			fired := false
			for !fired && n < c.maxOps {
				select {
				case op2 := <-c.ch:
					group = append(group, op2)
					n += len(op2.kinds)
				case <-timer.C:
					fired = true
				}
			}
			if !fired && !timer.Stop() {
				<-timer.C
			}
		}
	drain:
		for n < c.maxOps {
			select {
			case op2 := <-c.ch:
				group = append(group, op2)
				n += len(op2.kinds)
			default:
				break drain
			}
		}
		s.applyGroup(group)
	}
}

// applyGroup commits one group: check each request's ownership and apply
// the survivors as one engine batch, all inside one flight-RLock hold. A
// request with any moved slot is rejected whole — none of its entries
// reach the engine batch. The http_coalesce_* series count coalescer
// groups only.
func (s *server) applyGroup(group []*coalOp) {
	s.flight.RLock()
	var m *cluster.ShardMap
	if s.cfg.src != nil {
		m = s.cfg.src.Current()
	}
	b := getBatch()
	staged := 0
	for _, op := range group {
		if m != nil && !op.internal {
			for _, sh := range op.shards {
				if owner := m.Owner[sh]; owner != s.cfg.nodeID {
					op.wrongShard, op.shard, op.owner = true, sh, owner
					break
				}
			}
			if op.wrongShard {
				continue
			}
		}
		for i, kind := range op.kinds {
			if kind == wire.OpPut {
				b.Put(op.keys[i], op.values[i])
			} else {
				b.Delete(op.keys[i])
			}
		}
		staged += len(op.kinds)
	}
	var err error
	if b.Len() > 0 {
		err = s.db.Apply(b)
	}
	s.flight.RUnlock()
	batchPool.Put(b)
	if s.coal != nil {
		s.coalGroups.Inc()
		s.coalOps.Add(int64(staged))
		s.coalSize.Observe(int64(staged))
	}
	for _, op := range group {
		if !op.wrongShard {
			op.err = err
		}
		op.done <- struct{}{}
	}
}

// batchPool recycles engine write batches across groups.
var batchPool = sync.Pool{New: func() any { return lsm.NewBatch() }}

func getBatch() *lsm.Batch {
	b := batchPool.Get().(*lsm.Batch)
	b.Reset()
	return b
}
