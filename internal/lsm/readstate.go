package lsm

import (
	"adcache/internal/manifest"
	"adcache/internal/sstable"
)

// readState is the pooled per-operation scratch for the read hot paths
// (Get and scan). Pooling it keeps steady-state point lookups and warm
// scans free of per-operation allocations: the seek-key buffers, the
// block iterator, the merge heap, and the iterator stack all retain their
// backing storage between operations.
//
// A readState is used by one goroutine for one operation and returned to
// the pool before the operation's results are handed out (results never
// alias readState memory).
type readState struct {
	stats   sstable.ReadStats
	seekBuf []byte // search-key scratch for the memtable probes
	iters   []internalIterator
	merge   mergingIter
	vi      visibleIter

	// Reusable table and level iterators, handed out per scan in order.
	sstIters []*sstable.Iter
	sstUsed  int
	lvlIters []*levelIter
	lvlUsed  int
}

// getReadState fetches a readState from the pool, reset for a new operation.
func (d *DB) getReadState() *readState {
	rs := d.readPool.Get().(*readState)
	rs.stats.Reset()
	rs.iters = rs.iters[:0]
	rs.sstUsed, rs.lvlUsed = 0, 0
	return rs
}

// putReadState drops references to engine objects (memtables, readers,
// version-pinned files) so the pool never keeps them alive, then returns
// the scratch to the pool.
func (d *DB) putReadState(rs *readState) {
	for i := range rs.iters {
		rs.iters[i] = nil
	}
	rs.iters = rs.iters[:0]
	rs.merge.setIters(nil)
	rs.vi.init(nil, 0)
	for _, it := range rs.sstIters[:rs.sstUsed] {
		it.Close()
	}
	for _, l := range rs.lvlIters[:rs.lvlUsed] {
		l.init(nil, nil, nil)
	}
	// The point-lookup block iterator still views the last block read,
	// which may live in a table's memory map; a pooled view must not
	// outlive the table's reader.
	rs.stats.Reset()
	d.readPool.Put(rs)
}

// sstIter returns a pooled table iterator initialised over r.
func (rs *readState) sstIter(r *sstable.Reader) *sstable.Iter {
	if rs.sstUsed == len(rs.sstIters) {
		rs.sstIters = append(rs.sstIters, new(sstable.Iter))
	}
	it := rs.sstIters[rs.sstUsed]
	rs.sstUsed++
	it.Init(r, &rs.stats)
	return it
}

// levelIterFor returns a pooled level iterator initialised over files.
func (rs *readState) levelIterFor(tc *tableCache, files []*manifest.FileMeta) *levelIter {
	if rs.lvlUsed == len(rs.lvlIters) {
		rs.lvlIters = append(rs.lvlIters, new(levelIter))
	}
	l := rs.lvlIters[rs.lvlUsed]
	rs.lvlUsed++
	l.init(tc, files, &rs.stats)
	return l
}
