package lsm

import (
	"adcache/internal/sstable"
)

// Iterator is a forward iterator over the live keys of a consistent
// snapshot of the database. It pins the version it was created against, so
// concurrent flushes and compactions cannot invalidate it; Close releases
// the pin. Iterators read blocks through the block cache but bypass result
// caches (result caches serve materialised query results, not streams) —
// the same division RocksDB draws for its row cache.
//
// Iterators are not safe for concurrent use.
type Iterator struct {
	db     *DB
	handle *versionHandle
	vi     *visibleIter
	stats  sstable.ReadStats
	err    error // vi's error, kept when Close drops vi
	closed bool
}

// NewIter returns an iterator over a snapshot of the database taken now.
func (d *DB) NewIter() (*Iterator, error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, ErrClosed
	}
	mem := d.mem
	imm := d.imm
	h := d.acquireVersion()
	seq := d.lastSeq
	d.mu.RUnlock()

	it := &Iterator{db: d, handle: h}
	iters := []internalIterator{mem.NewIter()}
	for i := len(imm) - 1; i >= 0; i-- {
		iters = append(iters, imm[i].mem.NewIter())
	}
	for _, f := range h.v.Levels[0] {
		r, err := d.tc.get(f.FileNum)
		if err != nil {
			d.releaseVersion(h)
			return nil, err
		}
		fileIter, err := r.NewIter(&it.stats)
		if err != nil {
			d.releaseVersion(h)
			return nil, err
		}
		iters = append(iters, fileIter)
	}
	for level := 1; level < len(h.v.Levels); level++ {
		if len(h.v.Levels[level]) == 0 {
			continue
		}
		iters = append(iters, newLevelIter(d.tc, h.v.Levels[level], &it.stats))
	}
	it.vi = newVisibleIter(newMergingIter(iters...), seq)
	return it, nil
}

// First positions at the smallest live key.
func (it *Iterator) First() bool {
	if it.closed {
		return false
	}
	return it.skipDeleted(it.vi.First())
}

// SeekGE positions at the first live key >= target.
func (it *Iterator) SeekGE(target []byte) bool {
	if it.closed {
		return false
	}
	return it.skipDeleted(it.vi.SeekGE(target))
}

// Next advances to the next live key.
func (it *Iterator) Next() bool {
	if it.closed {
		return false
	}
	return it.skipDeleted(it.vi.Next())
}

// skipDeleted moves past tombstones.
func (it *Iterator) skipDeleted(ok bool) bool {
	for ok && it.vi.Deleted() {
		ok = it.vi.Next()
	}
	return ok
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iterator) Valid() bool { return !it.closed && it.vi.Valid() }

// Key returns the current user key; stable until the next positioning call
// and nil after Close.
func (it *Iterator) Key() []byte {
	if it.closed {
		return nil
	}
	return it.vi.UserKey()
}

// Value returns the current value; stable until the next positioning call
// and nil after Close (the block it points into may be unmapped by then).
func (it *Iterator) Value() []byte {
	if it.closed {
		return nil
	}
	return it.vi.Value()
}

// Err returns the first error the iterator encountered.
func (it *Iterator) Err() error {
	if it.closed {
		return it.err
	}
	return it.vi.Err()
}

// BlockReads reports how many SST blocks this iterator fetched from disk.
func (it *Iterator) BlockReads() int64 { return it.stats.BlockMisses }

// Close releases the snapshot pin. It is safe to call twice. The iterator
// drops its table iterators first: once the pin is gone their readers may
// be closed and unmapped, so nothing reachable from it may view them.
func (it *Iterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.err = it.vi.Err()
	it.vi = nil
	it.db.releaseVersion(it.handle)
}
