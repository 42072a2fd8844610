package sstable

import (
	"encoding/binary"
	"hash/crc32"

	"adcache/internal/block"
	"adcache/internal/bloom"
	"adcache/internal/keys"
	"adcache/internal/vfs"
)

// BlockCache is the hook through which block reads are cached. The engine's
// block cache implements it; AdCache wraps the insert side with admission
// control. Implementations must be safe for concurrent use.
//
// The cache holds the block's *physical image* — compressed payload plus the
// compression-type byte, exactly as stored on disk minus the checksum — so
// its byte budget charges real resident memory, not the inflated logical
// view. The reader decodes images after Get; for uncompressed blocks the
// decode is a zero-copy slice.
type BlockCache interface {
	// Get returns the cached physical block image for (fileNum, offset),
	// if present.
	Get(fileNum, offset uint64) ([]byte, bool)
	// Insert offers a physical block image for caching; the cache may
	// decline. logical is the decoded size of the block in bytes (equal to
	// len(data) for uncompressed blocks), letting caches report both
	// physical and logical occupancy. scan reports whether the block was
	// read by a range-scan iterator rather than a point lookup, letting
	// admission policies treat the two differently (§3.4 "this strategy can
	// also be applied to the block cache").
	Insert(fileNum, offset uint64, data []byte, logical int, scan bool)
	// Detach re-homes every cached image of the given files into memory the
	// cache owns, leaving sizes, recency and counters untouched. An image
	// may alias a reader's memory map; the engine calls Detach before it
	// closes such a reader, so no cached slice outlives its mapping.
	Detach(fileNums []uint64)
}

// ReadStats counts logical cache activity for one reader. Updated atomically
// via the shared counters passed in ReaderOptions.
type ReadStats struct {
	// BlockHits counts block reads served from the cache.
	BlockHits int64
	// BlockMisses counts block reads that went to the file.
	BlockMisses int64
	// FilterNegatives counts point lookups rejected by the Bloom filter.
	FilterNegatives int64
	// LimitScanFill enables the per-operation block-fill budget below.
	LimitScanFill bool
	// ScanFillBudget is decremented per scan-path cache insert once
	// LimitScanFill is set; at zero, further scan fills are suppressed.
	// ReadStats is per-operation and accessed from one goroutine, so no
	// synchronisation is needed.
	ScanFillBudget int64

	// Scratch state reused across operations when the same ReadStats is
	// passed to successive reads (the engine pools them): the seek-key
	// buffer and the data-block iterator keep their backing storage, making
	// warm point lookups allocation-free in the block/sstable layers.
	seekBuf   []byte
	blockIter block.Iter
}

// Reset clears the counters and flags for a new operation while retaining
// the scratch buffers, so pooled ReadStats stay allocation-free.
func (s *ReadStats) Reset() {
	s.BlockHits = 0
	s.BlockMisses = 0
	s.FilterNegatives = 0
	s.LimitScanFill = false
	s.ScanFillBudget = 0
	s.blockIter.Reset()
}

// ReaderOptions configures a table reader.
type ReaderOptions struct {
	// Cache, if non-nil, serves and receives data blocks.
	Cache BlockCache
	// FileNum identifies this file in cache keys.
	FileNum uint64
	// NoFillOnScan, when true, suppresses inserting blocks read by
	// iterators (scans) into the cache; point lookups still fill. AdCache
	// overrides fill behaviour via its own BlockCache wrapper instead.
	NoFillOnScan bool
}

// indexEntry is one parsed index-block entry: the last internal key of a
// data block and the block's location. The separator aliases a buffer pinned
// for the Reader's lifetime.
type indexEntry struct {
	sep keys.InternalKey
	h   Handle
}

// Reader provides random access to a finished sstable.
type Reader struct {
	f    vfs.File
	opts ReaderOptions
	// nc, when non-nil, serves block reads as zero-copy pinned views (an
	// mmap-style capability probed once at open, so the fallback decision
	// is immutable and race-free). Block images handed to the cache then
	// alias mapped file pages rather than heap copies.
	nc vfs.NoCopyReaderAt
	// index is the index block parsed once at open into a flat sorted
	// slice, pinned for the Reader's lifetime. Point lookups binary-search
	// it directly and table iterators walk it by position, so no per-read
	// index-block iterator is ever constructed.
	index   []indexEntry
	filter  bloom.Filter
	entries uint64
	size    int64
}

// NewReader opens the table in f.
func NewReader(f vfs.File, opts ReaderOptions) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < FooterLen {
		return nil, errCorruptf("file too small (%d bytes)", size)
	}
	var nc vfs.NoCopyReaderAt
	if cap, ok := f.(vfs.NoCopyReaderAt); ok {
		// Probe once: a file that can serve the footer as a pinned view can
		// serve every block (mapping failures surface here, not mid-read).
		if _, err := cap.ReadAtNoCopy(size-FooterLen, FooterLen); err == nil {
			nc = cap
		}
	}
	var footer [FooterLen]byte
	if _, err := f.ReadAt(footer[:], size-FooterLen); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[40:]) != Magic {
		return nil, errCorruptf("bad magic")
	}
	r := &Reader{f: f, opts: opts, nc: nc, size: size}
	r.entries = binary.LittleEndian.Uint64(footer[32:])
	filterHandle := decodeHandle(footer[:])
	indexHandle := decodeHandle(footer[16:])

	indexRaw, err := r.readBlockRaw(indexHandle)
	if err != nil {
		return nil, err
	}
	if r.index, err = parseIndex(indexRaw); err != nil {
		return nil, err
	}
	if filterHandle.Length > 0 {
		fb, err := r.readBlockRaw(filterHandle)
		if err != nil {
			return nil, err
		}
		r.filter = bloom.Filter(fb)
	}
	return r, nil
}

// NumEntries reports the entry count recorded in the footer.
func (r *Reader) NumEntries() uint64 { return r.entries }

// Size reports the file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// Mapped reports whether block reads are served as views of a memory map,
// so block images handed to the cache alias the mapping.
func (r *Reader) Mapped() bool { return r.nc != nil }

// Close releases the table's file and, with it, any memory map. Nothing may
// read through the reader afterwards, and every view it handed out must be
// dead or detached from the cache first (BlockCache.Detach). Close drops
// the views it holds itself, so a late read fails on the closed file
// instead of touching unmapped memory.
func (r *Reader) Close() error {
	r.nc = nil
	r.filter = nil
	return r.f.Close()
}

// readBlockPhysical reads one block's physical image — payload plus the
// compression-type byte, checksum verified and stripped — directly from the
// file. When the file supports pinned no-copy views (mmap on OSFS) the image
// aliases mapped pages and the read allocates nothing; otherwise it is one
// heap buffer and one ReadAt, as before.
func (r *Reader) readBlockPhysical(h Handle) ([]byte, error) {
	n := int64(h.Length) + TrailerLen
	var buf []byte
	if r.nc != nil {
		view, err := r.nc.ReadAtNoCopy(int64(h.Offset), n)
		if err != nil {
			return nil, err
		}
		buf = view
	} else {
		buf = make([]byte, n)
		if _, err := r.f.ReadAt(buf, int64(h.Offset)); err != nil {
			return nil, err
		}
	}
	img := buf[: h.Length+1 : h.Length+1]
	want := binary.LittleEndian.Uint32(buf[h.Length+1:])
	if crc32.Checksum(img, crcTable) != want {
		return nil, errCorruptf("checksum mismatch at offset %d", h.Offset)
	}
	return img, nil
}

// readBlockRaw reads, checksums and decodes a block, bypassing the cache.
// Used for the index and filter blocks, which are pinned in memory for the
// reader's lifetime (as RocksDB does with its index/filter partitions by
// default), and by compaction iterators.
func (r *Reader) readBlockRaw(h Handle) ([]byte, error) {
	img, err := r.readBlockPhysical(h)
	if err != nil {
		return nil, err
	}
	return decodeBlock(img)
}

// readBlock fetches a data block through the cache. The cache stores
// physical images; the logical block is decoded after every Get or miss (a
// zero-copy slice for uncompressed blocks, a fresh exact-size buffer for
// flate). fill controls whether a missed block is offered to the cache
// (false for scan paths when NoFillOnScan is set); scan tags the insert with
// its origin.
func (r *Reader) readBlock(h Handle, fill, scan bool, stats *ReadStats) ([]byte, error) {
	if c := r.opts.Cache; c != nil {
		if img, ok := c.Get(r.opts.FileNum, h.Offset); ok {
			if stats != nil {
				stats.BlockHits++
			}
			return decodeBlock(img)
		}
	}
	img, err := r.readBlockPhysical(h)
	if err != nil {
		return nil, err
	}
	data, err := decodeBlock(img)
	if err != nil {
		return nil, err
	}
	if stats != nil {
		stats.BlockMisses++
	}
	if c := r.opts.Cache; c != nil && fill {
		if scan && stats != nil && stats.LimitScanFill {
			// Block-level partial admission: the fill budget is consumed
			// only by actual inserts, never by cache hits.
			if stats.ScanFillBudget > 0 {
				stats.ScanFillBudget--
				c.Insert(r.opts.FileNum, h.Offset, img, len(data), scan)
			}
		} else {
			c.Insert(r.opts.FileNum, h.Offset, img, len(data), scan)
		}
	}
	return data, nil
}

// parseIndex decodes a serialized index block into a flat sorted entry
// slice. Separator keys are copied into one contiguous arena so the parsed
// form holds exactly two heap objects regardless of block count.
func parseIndex(raw []byte) ([]indexEntry, error) {
	it, err := block.NewIter(raw, icmp)
	if err != nil {
		return nil, err
	}
	var (
		arena   []byte
		offsets []int // 2 per entry: sep start, sep end
		handles []Handle
	)
	for ok := it.First(); ok; ok = it.Next() {
		if len(it.Value()) != 16 {
			return nil, errCorruptf("bad index entry")
		}
		start := len(arena)
		arena = append(arena, it.Key()...)
		offsets = append(offsets, start, len(arena))
		handles = append(handles, decodeHandle(it.Value()))
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	entries := make([]indexEntry, len(handles))
	for i := range entries {
		entries[i] = indexEntry{
			sep: keys.InternalKey(arena[offsets[2*i]:offsets[2*i+1]]),
			h:   handles[i],
		}
	}
	return entries, nil
}

// findBlock locates the position in the parsed index of the data block that
// may contain ikey: the first block whose separator (last key) >= ikey.
// Returns len(r.index) if ikey is past the last block.
func (r *Reader) findBlock(ikey keys.InternalKey) int {
	lo, hi := 0, len(r.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys.Compare(r.index[mid].sep, ikey) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value for the newest version of userKey visible at
// snapshot seq. Returns ok=false if the table has no visible version;
// deleted=true if the newest visible version is a tombstone.
func (r *Reader) Get(userKey []byte, seq uint64, stats *ReadStats) (value []byte, deleted, ok bool, err error) {
	if r.filter != nil && !r.filter.MayContain(userKey) {
		if stats != nil {
			stats.FilterNegatives++
		}
		return nil, false, false, nil
	}
	// The seek key and block iterator come from the per-operation scratch in
	// stats when available, so a warm lookup performs no allocations before
	// the final value copy.
	var it *block.Iter
	var search keys.InternalKey
	if stats != nil {
		stats.seekBuf = keys.AppendSearch(stats.seekBuf[:0], userKey, seq)
		search = keys.InternalKey(stats.seekBuf)
		it = &stats.blockIter
	} else {
		search = keys.MakeSearch(userKey, seq)
		it = new(block.Iter)
	}
	pos := r.findBlock(search)
	if pos == len(r.index) {
		return nil, false, false, nil
	}
	data, err := r.readBlock(r.index[pos].h, true, false, stats)
	if err != nil {
		return nil, false, false, err
	}
	if err := it.Init(data, icmp); err != nil {
		return nil, false, false, err
	}
	if !it.Seek(search) {
		return nil, false, false, it.Err()
	}
	ik := keys.InternalKey(it.Key())
	if string(ik.UserKey()) != string(userKey) {
		return nil, false, false, nil
	}
	if ik.Kind() == keys.KindDelete {
		return nil, true, true, nil
	}
	// Copy: the block may live in the cache and be evicted/reused.
	return append([]byte(nil), it.Value()...), false, true, nil
}

func icmp(a, b []byte) int { return keys.Compare(a, b) }
