package lsm

import (
	"bytes"

	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/sstable"
)

// internalIterator is the common shape of memtable, sstable and level
// iterators.
type internalIterator interface {
	First() bool
	Seek(target keys.InternalKey) bool
	Next() bool
	Valid() bool
	Key() keys.InternalKey
	Value() []byte
	Err() error
}

// levelIter iterates one non-overlapping level (L1+), opening file iterators
// lazily as the scan crosses file boundaries. It embeds one sstable.Iter by
// value and re-initialises it per file, so crossing a file boundary performs
// no allocation.
type levelIter struct {
	tc    *tableCache
	files []*manifest.FileMeta
	stats *sstable.ReadStats

	idx    int // current file index
	iter   sstable.Iter
	iterOK bool // iter is initialised on files[idx]
	err    error
}

func newLevelIter(tc *tableCache, files []*manifest.FileMeta, stats *sstable.ReadStats) *levelIter {
	l := new(levelIter)
	l.init(tc, files, stats)
	return l
}

// init points the levelIter at a level, replacing any previous state while
// retaining the embedded iterator's buffers (the engine pools levelIters).
func (l *levelIter) init(tc *tableCache, files []*manifest.FileMeta, stats *sstable.ReadStats) {
	l.iter.Close() // drop the previous table's reader and block view
	l.tc = tc
	l.files = files
	l.stats = stats
	l.idx = -1
	l.iterOK = false
	l.err = nil
}

func (l *levelIter) openFile(idx int) bool {
	l.idx = idx
	l.iterOK = false
	if idx >= len(l.files) {
		return false
	}
	r, err := l.tc.get(l.files[idx].FileNum)
	if err != nil {
		l.err = err
		return false
	}
	l.iter.Init(r, l.stats)
	l.iterOK = true
	return true
}

func (l *levelIter) First() bool {
	if !l.openFile(0) {
		return false
	}
	if l.iter.First() {
		return true
	}
	return l.Next()
}

func (l *levelIter) Seek(target keys.InternalKey) bool {
	// Binary search for the first file whose largest key >= target.
	lo, hi := 0, len(l.files)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(l.files[mid].Largest, target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if !l.openFile(lo) {
		return false
	}
	if l.iter.Seek(target) {
		return true
	}
	return l.Next()
}

func (l *levelIter) Next() bool {
	if l.err != nil {
		return false
	}
	if l.iterOK && l.iter.Next() {
		return true
	}
	if l.iterOK && l.iter.Err() != nil {
		// Latch corruption from the exhausted file before Init clears it.
		l.err = l.iter.Err()
		return false
	}
	for {
		if !l.openFile(l.idx + 1) {
			return false
		}
		if l.iter.First() {
			return true
		}
		if l.err != nil || l.iter.Err() != nil {
			return false
		}
	}
}

func (l *levelIter) Valid() bool { return l.iterOK && l.iter.Valid() }

func (l *levelIter) Key() keys.InternalKey { return l.iter.Key() }

func (l *levelIter) Value() []byte { return l.iter.Value() }

func (l *levelIter) Err() error {
	if l.err != nil {
		return l.err
	}
	if l.iterOK {
		return l.iter.Err()
	}
	return nil
}

// mergeChild is one source in the merge heap. It caches the child's current
// key so heap comparisons are direct slice compares instead of virtual
// Key() calls through the interface.
type mergeChild struct {
	it  internalIterator
	key keys.InternalKey
}

// mergingIter merges several internalIterators into one stream ordered by
// internal key. Internal keys are globally unique (sequence numbers are
// unique), so no tie-breaking across sources is needed.
//
// The heap is a concrete slice min-heap over mergeChild — no container/heap,
// so nothing is boxed through `any` and sift operations move small structs.
type mergingIter struct {
	iters []internalIterator
	h     []mergeChild
	init  bool
}

func newMergingIter(iters ...internalIterator) *mergingIter {
	return &mergingIter{iters: iters}
}

// setIters re-targets a pooled mergingIter at a new source slice, dropping
// every child reference the previous operation left in the heap's backing
// array so pooling never extends iterator lifetimes.
func (m *mergingIter) setIters(iters []internalIterator) {
	m.iters = iters
	full := m.h[:cap(m.h)]
	for i := range full {
		full[i] = mergeChild{}
	}
	m.h = m.h[:0]
	m.init = false
}

func (m *mergingIter) less(a, b int) bool {
	return keys.Compare(m.h[a].key, m.h[b].key) < 0
}

// siftDown restores the heap property from position i downward.
func (m *mergingIter) siftDown(i int) {
	n := len(m.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		small := left
		if right := left + 1; right < n && m.less(right, left) {
			small = right
		}
		if !m.less(small, i) {
			return
		}
		m.h[i], m.h[small] = m.h[small], m.h[i]
		i = small
	}
}

func (m *mergingIter) reset(position func(internalIterator) bool) bool {
	m.h = m.h[:0]
	for _, it := range m.iters {
		if position(it) {
			m.h = append(m.h, mergeChild{it: it, key: it.Key()})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	m.init = true
	return len(m.h) > 0
}

func (m *mergingIter) First() bool {
	return m.reset(func(it internalIterator) bool { return it.First() })
}

func (m *mergingIter) Seek(target keys.InternalKey) bool {
	return m.reset(func(it internalIterator) bool { return it.Seek(target) })
}

func (m *mergingIter) Next() bool {
	if !m.init || len(m.h) == 0 {
		return false
	}
	top := &m.h[0]
	if top.it.Next() {
		top.key = top.it.Key()
		m.siftDown(0)
	} else {
		n := len(m.h) - 1
		m.h[0] = m.h[n]
		m.h[n] = mergeChild{} // release the retired child for GC
		m.h = m.h[:n]
		if n > 1 {
			m.siftDown(0)
		}
	}
	return len(m.h) > 0
}

func (m *mergingIter) Valid() bool { return m.init && len(m.h) > 0 }

func (m *mergingIter) Key() keys.InternalKey { return m.h[0].key }

func (m *mergingIter) Value() []byte { return m.h[0].it.Value() }

func (m *mergingIter) Err() error {
	for _, it := range m.iters {
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// visibleIter filters a merged internal stream down to the newest visible
// version of each user key at snapshot seq, skipping shadowed versions.
// Tombstones are surfaced (Deleted()=true) so callers can skip dead keys.
type visibleIter struct {
	it      internalIterator
	seq     uint64
	userKey []byte
	value   []byte
	seekBuf []byte // scratch for SeekGE search keys, reused across seeks
	deleted bool
	valid   bool
}

func newVisibleIter(it internalIterator, seq uint64) *visibleIter {
	v := new(visibleIter)
	v.init(it, seq)
	return v
}

// init re-targets a pooled visibleIter, retaining its scratch buffers.
func (v *visibleIter) init(it internalIterator, seq uint64) {
	v.it = it
	v.seq = seq
	v.userKey = v.userKey[:0]
	v.value = nil
	v.deleted = false
	v.valid = false
}

// SeekGE positions at the newest visible version of the first user key
// >= target.
func (v *visibleIter) SeekGE(target []byte) bool {
	v.seekBuf = keys.AppendSearch(v.seekBuf[:0], target, v.seq)
	if !v.it.Seek(v.seekBuf) {
		v.valid = false
		return false
	}
	return v.settle()
}

// First positions at the first user key.
func (v *visibleIter) First() bool {
	if !v.it.First() {
		v.valid = false
		return false
	}
	return v.settle()
}

// settle finds the newest visible version at or after the current position.
func (v *visibleIter) settle() bool {
	for {
		if !v.it.Valid() {
			v.valid = false
			return false
		}
		ik := v.it.Key()
		if ik.Seq() > v.seq {
			// Invisible (newer than snapshot): skip this version.
			if !v.it.Next() {
				v.valid = false
				return false
			}
			continue
		}
		v.userKey = append(v.userKey[:0], ik.UserKey()...)
		v.value = v.it.Value()
		v.deleted = ik.Kind() == keys.KindDelete
		v.valid = true
		return true
	}
}

// Next advances to the next distinct user key.
func (v *visibleIter) Next() bool {
	if !v.valid {
		return false
	}
	// Skip remaining (older) versions of the current user key.
	for {
		if !v.it.Next() {
			v.valid = false
			return false
		}
		if !bytes.Equal(v.it.Key().UserKey(), v.userKey) {
			break
		}
	}
	return v.settle()
}

// Valid reports whether positioned at an entry.
func (v *visibleIter) Valid() bool { return v.valid }

// UserKey returns the current user key (stable until next move).
func (v *visibleIter) UserKey() []byte { return v.userKey }

// Value returns the current value.
func (v *visibleIter) Value() []byte { return v.value }

// Deleted reports whether the current entry is a tombstone.
func (v *visibleIter) Deleted() bool { return v.deleted }

// Err propagates the underlying iterator error.
func (v *visibleIter) Err() error { return v.it.Err() }
