package lsm

import (
	"errors"
	"sync"
	"sync/atomic"

	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// errTableReleased is returned for a table the version GC has already
// retired. Reaching it means a read ran without pinning a version that
// holds the file; reopening would leak a mapping no one ever closes.
var errTableReleased = errors.New("lsm: table already released by the version GC")

// tableCache holds the open sstable readers. A reader lives exactly as long
// as some live version references its file: the version GC (version_ref.go)
// releases the reader once its file has left every pinned version, and the
// DB closes it — unmapping the table and closing its descriptor — outside
// the version lock, just before the file is unlinked. DB.Close does the
// same for every table once no open iterator pins it. Index and filter
// blocks stay pinned with the reader, matching RocksDB's default behaviour.
//
// Opens are per-file singleflight: the global lock is only held to look up
// or install a table entry, never across the file open and index/filter
// reads, so one cold table open cannot stall concurrent readers of
// already-open tables. Concurrent openers of the same file share one open.
type tableCache struct {
	fs    vfs.FS
	dir   string
	cache sstable.BlockCache // shared by all readers; may be nil

	mu     sync.RWMutex
	tables map[uint64]*tableEntry
	// released holds the files whose readers the version GC has retired and
	// that may still exist on disk; get refuses them. A file leaves the set
	// once it is unlinked, after which an open fails on its own.
	released map[uint64]struct{}

	// Gauges: open readers and the bytes of their files that are mapped.
	openTables  atomic.Int64
	mappedBytes atomic.Int64
}

// tableEntry is the per-file singleflight slot: the first goroutine through
// once performs the open while later arrivals block only on this entry.
type tableEntry struct {
	fileNum uint64
	once    sync.Once
	r       *sstable.Reader
	err     error
}

func newTableCache(fs vfs.FS, dir string, cache sstable.BlockCache) *tableCache {
	return &tableCache{
		fs: fs, dir: dir, cache: cache,
		tables:   make(map[uint64]*tableEntry),
		released: make(map[uint64]struct{}),
	}
}

// get returns the reader for fileNum, opening it on first use. The caller
// must hold a version that references fileNum (or compactMu while fileNum is
// in the current version) for as long as it uses the reader.
func (tc *tableCache) get(fileNum uint64) (*sstable.Reader, error) {
	tc.mu.RLock()
	e := tc.tables[fileNum]
	tc.mu.RUnlock()
	if e == nil {
		tc.mu.Lock()
		if _, gone := tc.released[fileNum]; gone {
			tc.mu.Unlock()
			return nil, errTableReleased
		}
		if e = tc.tables[fileNum]; e == nil {
			e = &tableEntry{fileNum: fileNum}
			tc.tables[fileNum] = e
		}
		tc.mu.Unlock()
	}
	e.once.Do(func() { e.r, e.err = tc.open(fileNum) })
	if e.err != nil {
		// Drop the failed entry (unless already replaced or released) so a
		// later lookup can retry instead of caching the failure forever.
		tc.mu.Lock()
		if tc.tables[fileNum] == e {
			delete(tc.tables, fileNum)
		}
		tc.mu.Unlock()
		return nil, e.err
	}
	return e.r, nil
}

// open performs the actual file open and reader construction. It runs
// without tc.mu held.
func (tc *tableCache) open(fileNum uint64) (*sstable.Reader, error) {
	f, err := tc.fs.Open(sstPath(tc.dir, fileNum))
	if err != nil {
		return nil, err
	}
	r, err := sstable.NewReader(f, sstable.ReaderOptions{Cache: tc.cache, FileNum: fileNum})
	if err != nil {
		f.Close()
		return nil, err
	}
	tc.openTables.Add(1)
	if r.Mapped() {
		tc.mappedBytes.Add(r.Size())
	}
	return r, nil
}

// release removes fileNum's reader from the cache and returns its entry for
// closeTables, or nil if no reader is open. From now on get refuses the
// file. Called by the version GC under verMu.
func (tc *tableCache) release(fileNum uint64) *tableEntry {
	tc.mu.Lock()
	e := tc.tables[fileNum]
	delete(tc.tables, fileNum)
	tc.released[fileNum] = struct{}{}
	tc.mu.Unlock()
	if e == nil {
		return nil
	}
	// Settle the entry, so e.r is read after the open that wrote it.
	e.once.Do(func() { e.err = errTableReleased })
	if e.r == nil {
		return nil
	}
	return e
}

// forget drops fileNum from the released set once the file is unlinked.
func (tc *tableCache) forget(fileNum uint64) {
	tc.mu.Lock()
	delete(tc.released, fileNum)
	tc.mu.Unlock()
}

// openFiles lists the files with a table entry.
func (tc *tableCache) openFiles() []uint64 {
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	nums := make([]uint64, 0, len(tc.tables))
	for fn := range tc.tables {
		nums = append(nums, fn)
	}
	return nums
}

// closeTables closes released readers. Their cached block images may alias
// the mappings about to go away, so they are detached from the block cache
// first, in one pass for the whole batch.
func (tc *tableCache) closeTables(entries []*tableEntry) {
	if len(entries) == 0 {
		return
	}
	var mapped []uint64
	for _, e := range entries {
		if e.r.Mapped() {
			mapped = append(mapped, e.fileNum)
			tc.mappedBytes.Add(-e.r.Size())
		}
	}
	if tc.cache != nil {
		tc.cache.Detach(mapped)
	}
	for _, e := range entries {
		// A failed close leaves nothing to retry: the descriptor and the
		// mapping are released either way.
		_ = e.r.Close()
		tc.openTables.Add(-1)
	}
}
