// Package lsm implements the leveled LSM-tree storage engine the AdCache
// reproduction runs on: a scaled-down analogue of the RocksDB configuration
// used by the paper (1-leveling with size ratio 10, 4 KiB blocks, Bloom
// filters at 10 bits/key, L0 slowdown/stop triggers).
//
// The engine exposes the paper's Figure 5 integration points through the
// CacheStrategy interface: result caches are consulted before the MemTable,
// block reads flow through a pluggable block cache, and completed queries
// and writes are reported back to the strategy for admission and coherence.
package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adcache/internal/compaction"
	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/memtable"
	"adcache/internal/metrics"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
	"adcache/internal/wal"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsm: database closed")

// immTable is a sealed (immutable) memtable queued for background flush,
// paired with the WAL that made it durable. The WAL file is deleted only
// after the memtable's SSTable is installed in a persisted version, so a
// crash at any point between seal and flush recovers every write.
type immTable struct {
	mem    *memtable.MemTable
	walNum uint64
	// bytes caches ApproximateSize at seal time: the memtable is frozen, so
	// the commit path can charge the immutable queue against the memtable
	// budget without taking per-memtable locks.
	bytes int64
}

// DB is an LSM-tree key-value store. It is safe for concurrent use by
// multiple goroutines. Concurrent writers coalesce into write groups — one
// WAL append run and one memtable apply per group (RocksDB-style group
// commit). Full memtables are sealed onto an immutable queue and flushed,
// then compacted, by a background worker; the paper's L0 slowdown/stop
// triggers act as real write backpressure (delaying or blocking writers)
// rather than as inline compaction latency. Options.InlineCompaction
// restores the synchronous pre-concurrency behaviour for deterministic
// experiments.
//
// Lock ordering: commitMu → compactMu → mu → verMu. A goroutine may only
// acquire a lock that is to the right of every lock it already holds.
type DB struct {
	opts     Options
	fs       *vfs.CountingFS
	strategy CacheStrategy
	store    *manifest.Store
	tc       *tableCache

	// ioLimit paces background flush/compaction writes
	// (Options.BgIOBytesPerSec); nil when unlimited.
	ioLimit *ioLimiter

	// reg/metrics are the observability layer: hot-path histograms plus
	// scrape-time bridges over the counters below (see metrics.go).
	reg     *metrics.Registry
	metrics dbMetrics

	// commitMu serialises write groups: its holder is the group leader and
	// the only goroutine touching the WAL writer and seqAlloc.
	commitMu sync.Mutex
	seqAlloc uint64 // last allocated sequence; advances even when a group fails

	// pendMu guards the queue of writers waiting to be committed; the next
	// leader drains the whole queue into a single group.
	pendMu  sync.Mutex
	pending []*commitWaiter

	// compactMu serialises version-changing background work — memtable
	// flushes and compactions — between the background worker and the
	// foreground Flush/Compact barriers. roundRobin (the compaction
	// cursor, mutated by the picker) is guarded by it.
	compactMu  sync.Mutex
	roundRobin map[int][]byte

	mu      sync.RWMutex
	mem     *memtable.MemTable
	imm     []*immTable       // sealed memtables awaiting flush, oldest first
	version *manifest.Version // latest version; mutations under mu
	lastSeq uint64            // published only after the group's memtable apply
	closed  bool

	// Background error handler state (see errhandler.go). Guarded by mu.
	// bgState is healthy, retrying (transient failure, backoff in
	// progress) or read-only (corruption; writes fail fast until Resume).
	bgState   bgState
	bgKind    BgErrorKind
	bgCause   error
	bgAttempt int   // consecutive failures, drives the backoff
	bgRetries int64 // cumulative retry attempts (lsm_bg_retries_total)
	resumes   int64 // Resume calls that exited read-only mode

	// bgCond (on mu) wakes stalled writers when the background worker
	// retires an immutable memtable or shrinks L0.
	bgCond *sync.Cond

	// closing flips before Close takes any lock, so stalled writers and
	// new operations bail out promptly instead of racing the teardown.
	closing atomic.Bool

	// Background worker lifecycle (nil / unused with InlineCompaction).
	bgWork chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup

	// Version pinning (see version_ref.go).
	verMu   sync.Mutex
	current *versionHandle
	live    map[*versionHandle]struct{}
	zombies map[uint64]bool
	// deletable holds obsolete file numbers whose physical deletion waits
	// for the next durable manifest save: deleting them earlier would let a
	// crash land with a manifest referencing missing files. Guarded by verMu.
	deletable []uint64
	// retired holds readers of files no live version references, waiting to
	// be closed outside verMu. Guarded by verMu.
	retired []*tableEntry
	// shut is set by Close once the current version is unpinned; from then
	// on every table no live version references is closed. Guarded by verMu.
	shut bool

	nextFileNum atomic.Uint64
	walNum      uint64 // active log; written under commitMu+mu, read under either
	log         *wal.Writer

	// shapeInfo is a lock-free snapshot of tree-shape figures, refreshed on
	// every version install. Cache strategies read it from inside engine
	// callbacks (where taking d.mu would deadlock).
	shapeInfo atomic.Value // ShapeInfo

	// memBudget is the dynamic byte budget for active + immutable memtables,
	// set by a unified-memory arbiter via SetMemTableBudget. 0 means no
	// arbiter: the static Options.MemTableSize threshold applies. Atomic so
	// strategies can move it from inside engine callbacks (which may run
	// under d.mu).
	memBudget atomic.Int64

	// writeInfo is a lock-free snapshot of write-side state (memtable fill,
	// imm queue, flush/stall/amplification counters), refreshed whenever the
	// underlying counters change under d.mu. Like shapeInfo it exists so
	// cache strategies can observe the write side from inside callbacks.
	writeInfo atomic.Value // WriteSideInfo

	// Query-path I/O counters (atomic): block reads and block-cache hits
	// attributable to Get/Scan only, excluding flush/compaction/recovery
	// I/O — the paper's "SST reads" metric.
	queryBlockReads atomic.Int64
	queryBlockHits  atomic.Int64

	// obsoleteEntries is bumped by compactions dropping shadowed versions
	// and tombstones; atomic because compaction merges run outside mu.
	obsoleteEntries atomic.Int64

	// readPool recycles per-operation read scratch (seek-key buffers, block
	// and merge iterators, the scan iterator stack) so warm Get/Scan calls
	// allocate nothing beyond their results.
	readPool sync.Pool

	// Counters (guarded by mu).
	walRemoveErrors int64 // failed WAL deletions after successful flushes
	flushes         int64
	compactions     int64
	subcompactions  int64 // shard merges executed (== compactions when serial)
	stallSlowdowns  int64
	stallStops      int64
	writeGroups     int64
	memSeed         int64
	compactedBytes  int64   // bytes read as compaction inputs
	compactionOut   int64   // bytes written as compaction outputs
	levelCompactIn  []int64 // compaction input bytes drawn from each level
	levelCompactOut []int64 // compaction output bytes written into each level
	flushedBytes    int64
	userBytes       int64
}

// Open opens (creating if necessary) the database described by opts.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	fs := vfs.NewCounting(opts.FS)
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	strategy := opts.Strategy
	if strategy == nil {
		strategy = NoCache{}
	}
	reg := opts.MetricsRegistry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	db := &DB{
		opts:            opts,
		fs:              fs,
		strategy:        strategy,
		store:           manifest.NewStore(fs, opts.Dir),
		roundRobin:      make(map[int][]byte),
		memSeed:         opts.Seed,
		reg:             reg,
		ioLimit:         newIOLimiter(opts.BgIOBytesPerSec),
		levelCompactIn:  make([]int64, opts.NumLevels),
		levelCompactOut: make([]int64, opts.NumLevels),
	}
	db.registerMetrics(reg)
	db.readPool.New = func() any { return new(readState) }
	db.bgCond = sync.NewCond(&db.mu)
	db.tc = newTableCache(fs, opts.Dir, strategy.BlockCache())
	db.mem = memtable.New(db.nextMemSeedLocked())
	db.live = make(map[*versionHandle]struct{})
	db.zombies = make(map[uint64]bool)

	st, found, err := db.store.Load()
	if err != nil {
		return nil, err
	}
	var oldWALs []uint64
	if found {
		db.installVersion(st.Version, nil)
		db.lastSeq = st.LastSeq
		db.nextFileNum.Store(st.NextFileNum)
		oldWALs = st.WALNums
		if err := db.replayWALs(oldWALs); err != nil {
			return nil, err
		}
		if err := db.flushRecovered(); err != nil {
			return nil, err
		}
	} else {
		db.installVersion(manifest.NewVersion(opts.NumLevels), nil)
		db.nextFileNum.Store(1)
	}
	if err := db.startWAL(oldWALs); err != nil {
		return nil, err
	}
	db.removeOrphans()
	db.seqAlloc = db.lastSeq
	db.refreshWriteInfoLocked() // single-threaded: no other goroutine yet
	if !opts.InlineCompaction {
		db.bgWork = make(chan struct{}, 1)
		db.quit = make(chan struct{})
		db.wg.Add(1)
		go db.flushWorker()
		// Recovery may have rebuilt a tree that already violates its shape
		// invariants (e.g. a tall L0 from replayed flushes); start working
		// on it now rather than after the first seal.
		db.notifyWorker()
	}
	return db, nil
}

// nextMemSeedLocked returns the next deterministic skiplist seed.
// Caller holds d.mu (or is single-threaded during Open).
func (d *DB) nextMemSeedLocked() int64 {
	d.memSeed++
	return d.memSeed
}

// replayWALs rebuilds the memtable from every live log, oldest first: the
// logs of sealed-but-unflushed memtables, then the active log at the crash.
func (d *DB) replayWALs(nums []uint64) error {
	for _, num := range nums {
		if num == 0 {
			continue
		}
		path := walPath(d.opts.Dir, num)
		if !d.fs.Exists(path) {
			continue
		}
		if err := d.replayWAL(path); err != nil {
			return err
		}
	}
	return nil
}

// replayWAL applies one log to the memtable. The log is closed on every
// path: wal.Replay does not own the handle, and a leaked one would keep a
// retired log's disk space allocated after startWAL unlinks it.
func (d *DB) replayWAL(path string) error {
	f, err := d.fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	maxSeq, err := wal.Replay(f, func(rec wal.Record) error {
		d.mem.Set(keys.Make(rec.Key, rec.Seq, rec.Kind), rec.Value)
		return nil
	})
	if maxSeq > d.lastSeq {
		d.lastSeq = maxSeq
	}
	return err
}

// flushRecovered persists the memtable rebuilt by replayWALs as an L0
// table. It must run before startWAL retires the replayed logs: without
// it the recovered entries exist only in memory while the manifest stops
// listing the logs that held them, so a second crash before the next
// flush would lose every acknowledged write from before the first crash.
// Single-threaded (no other goroutine exists yet); the version installed
// here is persisted by startWAL's manifest save.
func (d *DB) flushRecovered() error {
	if d.mem.Empty() {
		return nil
	}
	start := time.Now()
	meta, err := d.writeMemTable(d.mem)
	if err != nil {
		return err
	}
	d.metrics.flushNanos.ObserveSince(start)
	nv := d.version.Clone()
	nv.Levels[0] = append([]*manifest.FileMeta{meta}, nv.Levels[0]...)
	d.installVersion(nv, nil)
	d.flushes++
	d.flushedBytes += int64(meta.Size)
	d.mem = memtable.New(d.nextMemSeedLocked())
	return nil
}

// startWAL opens a fresh active log during Open and retires the replayed
// ones. Single-threaded (no other goroutine exists yet).
func (d *DB) startWAL(oldNums []uint64) error {
	num := d.nextFileNum.Add(1) - 1
	f, err := d.fs.Create(walPath(d.opts.Dir, num))
	if err != nil {
		return err
	}
	d.walNum = num
	d.log = wal.NewWriter(f)
	if err := d.saveManifestLocked(); err != nil {
		return err
	}
	for _, old := range oldNums {
		if old == 0 || old == num || !d.fs.Exists(walPath(d.opts.Dir, old)) {
			continue
		}
		// Same contract as flushImm: the replayed records are durably in the
		// tree, so a failed deletion of a retired log is cosmetic — log it and
		// let the next Open's orphan sweep retry.
		if err := d.fs.Remove(walPath(d.opts.Dir, old)); err != nil {
			d.logf("lsm: removing replayed wal %06d failed (will retry on reopen): %v", old, err)
			d.walRemoveErrors++
		}
	}
	return nil
}

// removeOrphans deletes files in the database directory that the freshly
// persisted manifest does not reference: SSTs from flushes or compactions
// that crashed before their version install, WALs already folded into
// flushed tables, and leftover MANIFEST.tmp from an interrupted save.
// Without this, every crash leaks its in-flight files forever. Best-effort;
// runs single-threaded at the end of Open, after the manifest save, so the
// live set is exact.
func (d *DB) removeOrphans() {
	names, err := d.fs.List(d.opts.Dir)
	if err != nil {
		return
	}
	liveSST := make(map[uint64]bool)
	for _, level := range d.version.Levels {
		for _, f := range level {
			liveSST[f.FileNum] = true
		}
	}
	for _, name := range names {
		full := d.opts.Dir + "/" + name
		if name == "MANIFEST.tmp" {
			d.logf("lsm: removing leftover manifest temp %s", full)
			d.fs.Remove(full)
			continue
		}
		typ, num := parseFileName(name)
		switch typ {
		case "sst":
			if !liveSST[num] {
				d.logf("lsm: removing orphan table %s", full)
				d.fs.Remove(full)
			}
		case "log":
			// The only live log at this point in Open is the fresh active
			// one; every other log was either replayed and flushed above or
			// belongs to no manifest.
			if num != d.walNum {
				d.logf("lsm: removing orphan wal %s", full)
				d.fs.Remove(full)
			}
		}
	}
}

// saveManifestLocked persists the current state. The manifest lists every
// live log oldest-first (one per queued immutable memtable, then the active
// log) so recovery can replay all of them in order. Caller holds d.mu.
func (d *DB) saveManifestLocked() error {
	walNums := make([]uint64, 0, len(d.imm)+1)
	for _, im := range d.imm {
		walNums = append(walNums, im.walNum)
	}
	walNums = append(walNums, d.walNum)
	if err := d.store.Save(manifest.State{
		NextFileNum: d.nextFileNum.Load(),
		LastSeq:     d.lastSeq,
		WALNum:      d.walNum,
		WALNums:     walNums,
		Version:     d.version,
	}); err != nil {
		return err
	}
	// The saved manifest references none of the deferred-obsolete files
	// (they left d.version before this save); now they can really go.
	d.deleteObsoleteFiles()
	return nil
}

// Put stores key=value.
func (d *DB) Put(key, value []byte) error {
	return d.commit([]batchOp{{
		kind:  keys.KindSet,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	}})
}

// Delete removes key.
func (d *DB) Delete(key []byte) error {
	return d.commit([]batchOp{{
		kind: keys.KindDelete,
		key:  append([]byte(nil), key...),
	}})
}

// Get returns the value for key, following the paper's query-handling path:
// range/result cache → MemTable → block cache → disk.
func (d *DB) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	defer d.metrics.getNanos.ObserveSince(start)

	// 1. Result cache.
	if v, found, ok := d.strategy.GetCached(key); ok {
		return v, found, nil
	}

	// The read lock is held across table reads AND the admission callback:
	// writers update result caches under the write lock (OnWrite), so
	// admitting inside the read critical section guarantees a stale result
	// can never overwrite a newer write in the cache.
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, false, ErrClosed
	}
	mem := d.mem
	imm := d.imm
	h := d.acquireVersion()
	seq := d.lastSeq
	defer d.releaseVersion(h)
	version := h.v

	// The pooled readState supplies every piece of per-operation scratch —
	// the memtable search key, the SSTable seek key and the block iterator —
	// so a warm lookup allocates only the returned value copy.
	rs := d.getReadState()
	defer d.putReadState(rs)

	// 2. MemTable, then sealed memtables newest-first. One search key is
	// built once and reused across the whole memtable queue.
	rs.seekBuf = keys.AppendSearch(rs.seekBuf[:0], key, seq)
	search := keys.InternalKey(rs.seekBuf)
	if v, deleted, ok := mem.GetSeek(search, key); ok {
		if deleted {
			return nil, false, nil
		}
		// Served from memory: no disk involved, nothing to admit (the
		// cache-fill path only captures disk-served results, Figure 5).
		return v, true, nil
	}
	for i := len(imm) - 1; i >= 0; i-- {
		if v, deleted, ok := imm[i].mem.GetSeek(search, key); ok {
			if deleted {
				return nil, false, nil
			}
			return v, true, nil
		}
	}

	// 3. SSTables through the block cache.
	value, found, err := d.getFromTables(version, key, seq, &rs.stats)
	if err != nil {
		return nil, false, err
	}
	d.queryBlockReads.Add(rs.stats.BlockMisses)
	d.queryBlockHits.Add(rs.stats.BlockHits)
	d.strategy.OnPointResult(key, value, int(rs.stats.BlockMisses))
	return value, found, nil
}

func (d *DB) getFromTables(v *manifest.Version, key []byte, seq uint64, stats *sstable.ReadStats) ([]byte, bool, error) {
	// L0: newest file first.
	for _, f := range v.Levels[0] {
		if !f.ContainsUser(key) {
			continue
		}
		r, err := d.tc.get(f.FileNum)
		if err != nil {
			return nil, false, err
		}
		val, deleted, ok, err := r.Get(key, seq, stats)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if deleted {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	// L1+: at most one file per level can contain the key.
	for level := 1; level < len(v.Levels); level++ {
		f := findFile(v.Levels[level], key)
		if f == nil {
			continue
		}
		r, err := d.tc.get(f.FileNum)
		if err != nil {
			return nil, false, err
		}
		val, deleted, ok, err := r.Get(key, seq, stats)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if deleted {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	return nil, false, nil
}

// findFile binary-searches a sorted non-overlapping level for the file
// containing key.
func findFile(files []*manifest.FileMeta, key []byte) *manifest.FileMeta {
	lo, hi := 0, len(files)
	for lo < hi {
		mid := (lo + hi) / 2
		if string(files[mid].Largest.UserKey()) < string(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(files) && files[lo].ContainsUser(key) {
		return files[lo]
	}
	return nil
}

// Scan returns up to n live key-value pairs with key >= start, in key order.
func (d *DB) Scan(start []byte, n int) ([]KV, error) {
	return d.scan(start, nil, n)
}

// ScanRange returns up to limit live pairs with start <= key < end.
// A nil end means no upper bound; limit <= 0 means no count bound (the scan
// still ends at end). The result flows through the same cache paths as Scan.
func (d *DB) ScanRange(start, end []byte, limit int) ([]KV, error) {
	if limit <= 0 {
		limit = int(^uint(0) >> 1) // unbounded count; end bounds the scan
	}
	return d.scan(start, end, limit)
}

func (d *DB) scan(start, end []byte, n int) ([]KV, error) {
	if n <= 0 {
		return nil, nil
	}
	begin := time.Now()
	defer d.metrics.scanNanos.ObserveSince(begin)
	// 1. Result cache. With an end bound the cached answer is complete only
	// if it provably reaches end: contiguous entries cover [start, last],
	// so an entry at or past end proves every live key in [start, end) is
	// included.
	if kvs, ok := d.strategy.ScanCached(start, n); ok {
		if end == nil {
			return kvs, nil
		}
		for i, kv := range kvs {
			if bytes.Compare(kv.Key, end) >= 0 {
				return kvs[:i], nil
			}
		}
		// All cached entries fall below end: completeness unknown, fall
		// through to the tree.
	}

	// As in Get, the read lock covers the scan and its admission so cache
	// contents can never regress behind a concurrent write.
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	mem := d.mem
	imm := d.imm
	h := d.acquireVersion()
	seq := d.lastSeq
	defer d.releaseVersion(h)
	version := h.v

	rs := d.getReadState()
	defer d.putReadState(rs)
	stats := &rs.stats
	if quota, limited := d.strategy.ScanBlockFillQuota(n); limited {
		stats.LimitScanFill = true
		stats.ScanFillBudget = quota
	}
	iters := append(rs.iters, mem.NewIter())
	for i := len(imm) - 1; i >= 0; i-- {
		iters = append(iters, imm[i].mem.NewIter())
	}
	for _, f := range version.Levels[0] {
		if string(f.Largest.UserKey()) < string(start) {
			continue
		}
		r, err := d.tc.get(f.FileNum)
		if err != nil {
			rs.iters = iters
			return nil, err
		}
		iters = append(iters, rs.sstIter(r))
	}
	for level := 1; level < len(version.Levels); level++ {
		files := version.Overlapping(level, start, nil)
		if len(files) == 0 {
			continue
		}
		iters = append(iters, rs.levelIterFor(d.tc, files))
	}
	rs.iters = iters

	rs.merge.setIters(iters)
	vi := &rs.vi
	vi.init(&rs.merge, seq)
	var out []KV
	// Results are copied into one contiguous arena per scan instead of two
	// fresh allocations per returned pair; the arena is handed out with the
	// results (never pooled), so retaining them is safe.
	var arena []byte
	entries := make([]ScanEntry, 0, min(n, 1024))
	for ok := vi.SeekGE(start); ok && len(out) < n; ok = vi.Next() {
		if vi.Deleted() {
			continue
		}
		if end != nil && bytes.Compare(vi.UserKey(), end) >= 0 {
			break
		}
		kOff := len(arena)
		arena = append(arena, vi.UserKey()...)
		vOff := len(arena)
		arena = append(arena, vi.Value()...)
		k, v := arena[kOff:vOff:vOff], arena[vOff:len(arena):len(arena)]
		out = append(out, KV{Key: k, Value: v})
		entries = append(entries, ScanEntry{Key: k, Value: v})
	}
	if err := vi.Err(); err != nil {
		return nil, err
	}
	d.queryBlockReads.Add(stats.BlockMisses)
	d.queryBlockHits.Add(stats.BlockHits)
	d.strategy.OnScanResult(start, entries, int(stats.BlockMisses))
	return out, nil
}

// ShapeInfo is the lock-free subset of Metrics used by cache strategies to
// parameterise the I/O-estimate model while running inside engine callbacks.
type ShapeInfo struct {
	NonEmptyLevels int
	SortedRuns     int
	L0Files        int
	TotalEntries   uint64
	TotalBytes     uint64
}

// ShapeInfo returns the latest tree-shape snapshot without locking.
func (d *DB) ShapeInfo() ShapeInfo {
	v, _ := d.shapeInfo.Load().(ShapeInfo)
	return v
}

// QueryBlockReads reports cumulative SST block reads issued by Get/Scan —
// the paper's "SST reads" metric (flush, compaction and recovery I/O are
// excluded).
func (d *DB) QueryBlockReads() int64 { return d.queryBlockReads.Load() }

// QueryBlockHits reports cumulative block-cache hits on the query path.
func (d *DB) QueryBlockHits() int64 { return d.queryBlockHits.Load() }

// Flush persists every write accepted so far: it seals the active memtable
// and synchronously drains the immutable queue (plus any triggered
// compactions). It is a full barrier with respect to writes that completed
// before the call; writes racing Flush may or may not be included.
func (d *DB) Flush() error {
	if d.closing.Load() {
		return ErrClosed
	}
	d.commitMu.Lock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.commitMu.Unlock()
		return ErrClosed
	}
	if d.bgState == bgReadOnly {
		err := d.readOnlyErrLocked()
		d.mu.Unlock()
		d.commitMu.Unlock()
		return err
	}
	hadWork := !d.mem.Empty() || len(d.imm) > 0
	var err error
	if hadWork {
		err = d.sealMemTableLocked()
	}
	d.mu.Unlock()
	d.commitMu.Unlock()
	if err != nil || !hadWork {
		return err
	}
	if err := d.drainAndCompact(!d.opts.DisableAutoCompaction); err != nil {
		return d.foregroundBgError(err)
	}
	// A successful synchronous flush also clears any transient background
	// failure: the queue is drained and the tree is consistent again.
	d.clearBgError()
	return nil
}

// Compact drains pending flushes and runs compactions until the tree
// satisfies its shape invariants.
func (d *DB) Compact() error {
	if d.closing.Load() {
		return ErrClosed
	}
	d.mu.RLock()
	readOnly := d.bgState == bgReadOnly
	var roErr error
	if readOnly {
		roErr = d.readOnlyErrLocked()
	}
	d.mu.RUnlock()
	if readOnly {
		return roErr
	}
	if err := d.drainAndCompact(true); err != nil {
		return d.foregroundBgError(err)
	}
	d.clearBgError()
	return nil
}

// foregroundBgError feeds a failed foreground Flush/Compact into the error
// handler (background mode only: inline mode reports errors synchronously to
// the writer and keeps no sticky state) and returns the error unchanged. A
// transient failure leaves the worker scheduled to retry, so the DB
// self-heals even when the failing call was a manual one.
func (d *DB) foregroundBgError(err error) error {
	if d.opts.InlineCompaction || errors.Is(err, ErrClosed) {
		return err
	}
	if retry, _ := d.noteBgError(err); retry {
		d.notifyWorker()
	}
	return err
}

// Close stops background work, closes the log and persists the manifest.
// Sealed-but-unflushed memtables are not flushed; their WALs stay on disk
// and are replayed on the next Open. Close is idempotent, and writes racing
// Close either commit fully or return ErrClosed. Every table reader is
// closed, except those an open Iterator pins: they close when it does.
func (d *DB) Close() error {
	d.closing.Store(true)
	// Wake writers stalled on backpressure so they can observe closing and
	// release commitMu.
	d.mu.Lock()
	d.bgCond.Broadcast()
	d.mu.Unlock()

	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.bgCond.Broadcast()
	d.mu.Unlock()

	if d.quit != nil {
		close(d.quit)
		d.wg.Wait()
	}

	// A foreground Flush or Compact may still be merging through the
	// current version's readers; wait for it before closing them.
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.log.Close()
	if err == nil {
		err = d.saveManifestLocked()
	}
	d.shutTables()
	return err
}

// IOStats returns cumulative file I/O counters; ReadOps equals the paper's
// "SST reads" (one ReadAt per block).
func (d *DB) IOStats() vfs.StatsSnapshot { return d.fs.Stats.Snapshot() }

// Metrics summarises engine state for stats collection and tools.
type Metrics struct {
	LevelFiles      []int
	LevelBytes      []uint64
	L0Files         int
	NonEmptyLevels  int
	SortedRuns      int
	TotalEntries    uint64
	TotalBytes      uint64
	MemTableEntries int
	MemTableBytes   int64
	ImmMemTables    int
	// ImmMemTableBytes is the physical bytes pinned by the sealed queue;
	// MemTableBudget the dynamic unified-memory budget (0 = static sizing);
	// MemTableTarget the flush threshold currently in force.
	ImmMemTableBytes int64
	MemTableBudget   int64
	MemTableTarget   int64
	Flushes          int64
	Compactions      int64
	// Subcompactions counts shard merges: equal to Compactions when every
	// compaction ran serially, larger when range-partitioned shards ran.
	Subcompactions     int64
	StallSlowdowns     int64
	StallStops         int64
	WriteGroups        int64
	CompactedBytes     int64
	CompactionOutBytes int64
	// LevelCompactionInBytes[l] is the cumulative compaction input bytes
	// drawn from level l; LevelCompactionOutBytes[l] the output bytes
	// written into it. Their per-level ratio is the compaction
	// write-amplification profile of the tree.
	LevelCompactionInBytes  []int64
	LevelCompactionOutBytes []int64
	FlushedBytes            int64
	UserBytes               int64
	LastSeq                 uint64
	// Error-handler state: BgState is "healthy", "retrying" or
	// "read-only"; BgErrorKind classifies the failure ("none",
	// "transient", "no-space", "corruption"); BgLastError is the latest
	// background failure text ("" when healthy).
	BgState     string
	BgErrorKind string
	BgLastError string
	// BgRetries counts background retry attempts; Resumes counts Resume
	// calls that exited read-only mode; WALRemoveErrors counts WAL
	// deletions that failed after a successful flush (non-fatal).
	BgRetries       int64
	Resumes         int64
	WALRemoveErrors int64
	// BgIOStallNanos is cumulative time background flush/compaction writers
	// spent throttled by the Options.BgIOBytesPerSec token bucket.
	BgIOStallNanos int64
	// OpenFiles counts the engine's open file handles (tables, logs,
	// manifest writes in flight); OpenTables the open table readers; and
	// MappedTableBytes the file bytes those readers hold memory-mapped. A
	// table stays open only while a live version references it, so at rest
	// OpenTables never exceeds the tree's file count.
	OpenFiles        int64
	OpenTables       int64
	MappedTableBytes int64
	// bgStateNum is the numeric form of BgState for the lsm_bg_state gauge
	// (0 healthy, 1 retrying, 2 read-only).
	bgStateNum int
}

// WriteAmplification reports total bytes written to SSTables (flush +
// compaction outputs) per user byte, the standard LSM write-amplification
// measure. Zero before any writes.
func (m Metrics) WriteAmplification() float64 {
	if m.UserBytes == 0 {
		return 0
	}
	return float64(m.FlushedBytes+m.CompactionOutBytes) / float64(m.UserBytes)
}

// Metrics returns a point-in-time engine summary.
func (d *DB) Metrics() Metrics {
	d.mu.RLock()
	defer d.mu.RUnlock()
	m := Metrics{
		LevelFiles:              make([]int, len(d.version.Levels)),
		LevelBytes:              make([]uint64, len(d.version.Levels)),
		L0Files:                 len(d.version.Levels[0]),
		NonEmptyLevels:          d.version.NumNonEmptyLevels(),
		SortedRuns:              d.version.NumSortedRuns(),
		MemTableEntries:         d.mem.Count(),
		MemTableBytes:           d.mem.ApproximateSize(),
		ImmMemTables:            len(d.imm),
		ImmMemTableBytes:        d.immBytesLocked(),
		MemTableBudget:          d.memBudget.Load(),
		MemTableTarget:          d.activeMemTargetLocked(),
		Flushes:                 d.flushes,
		Compactions:             d.compactions,
		Subcompactions:          d.subcompactions,
		StallSlowdowns:          d.stallSlowdowns,
		StallStops:              d.stallStops,
		WriteGroups:             d.writeGroups,
		CompactedBytes:          d.compactedBytes,
		CompactionOutBytes:      d.compactionOut,
		LevelCompactionInBytes:  append([]int64(nil), d.levelCompactIn...),
		LevelCompactionOutBytes: append([]int64(nil), d.levelCompactOut...),
		FlushedBytes:            d.flushedBytes,
		UserBytes:               d.userBytes,
		LastSeq:                 d.lastSeq,
		BgState:                 d.bgState.String(),
		bgStateNum:              int(d.bgState),
		BgErrorKind:             d.bgKind.String(),
		BgRetries:               d.bgRetries,
		Resumes:                 d.resumes,
		WALRemoveErrors:         d.walRemoveErrors,
		BgIOStallNanos:          d.ioLimit.StallNanos(),
		OpenFiles:               d.fs.Stats.OpenFiles.Load(),
		OpenTables:              d.tc.openTables.Load(),
		MappedTableBytes:        d.tc.mappedBytes.Load(),
	}
	if d.bgCause != nil {
		m.BgLastError = d.bgCause.Error()
	}
	for i, level := range d.version.Levels {
		m.LevelFiles[i] = len(level)
		m.LevelBytes[i] = d.version.SizeOfLevel(i)
		for _, f := range level {
			m.TotalEntries += f.NumEntries
			m.TotalBytes += f.Size
		}
	}
	return m
}

// Options returns the effective options the DB runs with.
func (d *DB) Options() Options { return d.opts }

func (d *DB) String() string {
	m := d.Metrics()
	return fmt.Sprintf("lsm.DB{levels=%v runs=%d entries=%d bytes=%d}",
		m.LevelFiles, m.SortedRuns, m.TotalEntries, m.TotalBytes)
}

// pickerConfig adapts Options to the compaction picker.
func (d *DB) pickerConfig() compaction.Config {
	return compaction.Config{
		L0Trigger:    d.opts.L0CompactTrigger,
		L1TargetSize: d.opts.L1TargetSize,
		SizeRatio:    d.opts.LevelSizeRatio,
		NumLevels:    d.opts.NumLevels,
	}
}
