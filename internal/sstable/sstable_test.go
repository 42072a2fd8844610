package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

func buildTable(t testing.TB, fs vfs.FS, name string, n int, opts WriterOptions) Meta {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, opts)
	for i := 0; i < n; i++ {
		ik := keys.Make([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet)
		if err := w.Add(ik, []byte(fmt.Sprintf("val%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return meta
}

func openTable(t testing.TB, fs vfs.FS, name string, opts ReaderOptions) *Reader {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteReadGet(t *testing.T) {
	fs := vfs.NewMem()
	meta := buildTable(t, fs, "t.sst", 1000, WriterOptions{})
	if meta.NumEntries != 1000 {
		t.Fatalf("NumEntries = %d", meta.NumEntries)
	}
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	for _, i := range []int{0, 1, 500, 999} {
		v, deleted, ok, err := r.Get([]byte(fmt.Sprintf("key%06d", i)), keys.MaxSeq, nil)
		if err != nil || !ok || deleted {
			t.Fatalf("Get(%d): ok=%v deleted=%v err=%v", i, ok, deleted, err)
		}
		if string(v) != fmt.Sprintf("val%06d", i) {
			t.Fatalf("Get(%d) = %q", i, v)
		}
	}
	if _, _, ok, _ := r.Get([]byte("missing"), keys.MaxSeq, nil); ok {
		t.Fatal("found a missing key")
	}
}

func TestSnapshotVisibility(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	// Two versions of "k": seq 20 (new) and seq 10 (old). Internal order
	// puts newer first.
	w.Add(keys.Make([]byte("k"), 20, keys.KindSet), []byte("new"))
	w.Add(keys.Make([]byte("k"), 10, keys.KindSet), []byte("old"))
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	if v, _, ok, _ := r.Get([]byte("k"), keys.MaxSeq, nil); !ok || string(v) != "new" {
		t.Fatalf("latest = %q ok=%v", v, ok)
	}
	if v, _, ok, _ := r.Get([]byte("k"), 15, nil); !ok || string(v) != "old" {
		t.Fatalf("snapshot 15 = %q ok=%v", v, ok)
	}
	if _, _, ok, _ := r.Get([]byte("k"), 5, nil); ok {
		t.Fatal("snapshot 5 should see nothing")
	}
}

func TestTombstone(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	w.Add(keys.Make([]byte("k"), 2, keys.KindDelete), nil)
	w.Add(keys.Make([]byte("k"), 1, keys.KindSet), []byte("v"))
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	_, deleted, ok, err := r.Get([]byte("k"), keys.MaxSeq, nil)
	if err != nil || !ok || !deleted {
		t.Fatalf("tombstone not surfaced: ok=%v deleted=%v err=%v", ok, deleted, err)
	}
}

func TestIterFullScanAndSeek(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 5000, WriterOptions{BlockSize: 512})
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	it, err := r.NewIter(nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ok := it.First(); ok; ok = it.Next() {
		want := fmt.Sprintf("key%06d", i)
		if string(it.Key().UserKey()) != want {
			t.Fatalf("entry %d = %s", i, it.Key().UserKey())
		}
		i++
	}
	if i != 5000 || it.Err() != nil {
		t.Fatalf("scanned %d entries, err=%v", i, it.Err())
	}
	// Seek to a mid-table key.
	target := keys.MakeSearch([]byte("key003000"), keys.MaxSeq)
	if !it.Seek(target) || string(it.Key().UserKey()) != "key003000" {
		t.Fatalf("Seek landed on %s", it.Key())
	}
}

func TestBloomFilterSkipsAbsentKeys(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 1000, WriterOptions{BitsPerKey: 10})
	r := openTable(t, fs, "t.sst", ReaderOptions{})
	var stats ReadStats
	hits := 0
	for i := 0; i < 500; i++ {
		if _, _, ok, _ := r.Get([]byte(fmt.Sprintf("absent%06d", i)), keys.MaxSeq, &stats); ok {
			hits++
		}
	}
	if hits != 0 {
		t.Fatal("found absent keys")
	}
	if stats.FilterNegatives < 450 {
		t.Fatalf("filter rejected only %d of 500 absent lookups", stats.FilterNegatives)
	}
}

// fakeCache records Get/Insert traffic.
type fakeCache struct {
	store       map[[2]uint64][]byte
	inserts     int
	scanInserts int
}

func newFakeCache() *fakeCache { return &fakeCache{store: map[[2]uint64][]byte{}} }

func (c *fakeCache) Get(fileNum, off uint64) ([]byte, bool) {
	b, ok := c.store[[2]uint64{fileNum, off}]
	return b, ok
}

func (c *fakeCache) Insert(fileNum, off uint64, data []byte, logical int, scan bool) {
	c.store[[2]uint64{fileNum, off}] = data
	c.inserts++
	if scan {
		c.scanInserts++
	}
}

// Detach is a no-op: the tests read MemFS tables, whose images never alias
// a memory map.
func (c *fakeCache) Detach([]uint64) {}

func TestBlockCacheServesRepeatReads(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 1000, WriterOptions{})
	cache := newFakeCache()
	r := openTable(t, fs, "t.sst", ReaderOptions{Cache: cache, FileNum: 7})
	var s1, s2 ReadStats
	r.Get([]byte("key000500"), keys.MaxSeq, &s1)
	if s1.BlockMisses != 1 || s1.BlockHits != 0 {
		t.Fatalf("first read stats = %+v", s1)
	}
	r.Get([]byte("key000500"), keys.MaxSeq, &s2)
	if s2.BlockHits != 1 || s2.BlockMisses != 0 {
		t.Fatalf("second read stats = %+v", s2)
	}
}

func TestScanFillBudgetLimitsInserts(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 2000, WriterOptions{BlockSize: 512})
	cache := newFakeCache()
	r := openTable(t, fs, "t.sst", ReaderOptions{Cache: cache, FileNum: 1})
	stats := &ReadStats{LimitScanFill: true, ScanFillBudget: 3}
	it, err := r.NewIter(stats)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ok := it.First(); ok && n < 1000; ok = it.Next() {
		n++
	}
	if cache.inserts != 3 {
		t.Fatalf("inserts = %d, want budget 3", cache.inserts)
	}
	if cache.scanInserts != 3 {
		t.Fatal("scan inserts not tagged")
	}
}

func TestNoCacheIterBypasses(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 500, WriterOptions{})
	cache := newFakeCache()
	r := openTable(t, fs, "t.sst", ReaderOptions{Cache: cache, FileNum: 1})
	it, err := r.NewIterNoCache()
	if err != nil {
		t.Fatal(err)
	}
	for ok := it.First(); ok; ok = it.Next() {
	}
	if cache.inserts != 0 {
		t.Fatalf("compaction-style iterator inserted %d blocks", cache.inserts)
	}
}

func TestCorruptionDetected(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", 100, WriterOptions{})
	f, _ := fs.Open("t.sst")
	// Flip a byte in the first data block.
	f.WriteAt([]byte{0xFF}, 10)
	if _, err := NewReader(f, ReaderOptions{}); err == nil {
		// The index/footer may still parse; a Get must then fail.
		r, _ := NewReader(f, ReaderOptions{})
		if r != nil {
			if _, _, _, err := r.Get([]byte("key000001"), keys.MaxSeq, nil); err == nil {
				t.Fatal("corruption not detected")
			}
		}
	}
}

func TestEmptyTableRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := NewWriter(f, WriterOptions{})
	if _, err := w.Finish(); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	f.Write([]byte("short"))
	if _, err := NewReader(f, ReaderOptions{}); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestMetaBounds(t *testing.T) {
	fs := vfs.NewMem()
	meta := buildTable(t, fs, "t.sst", 100, WriterOptions{})
	if !bytes.Equal(meta.Smallest.UserKey(), []byte("key000000")) {
		t.Fatalf("Smallest = %s", meta.Smallest.UserKey())
	}
	if !bytes.Equal(meta.Largest.UserKey(), []byte("key000099")) {
		t.Fatalf("Largest = %s", meta.Largest.UserKey())
	}
	if meta.Size == 0 {
		t.Fatal("zero Size")
	}
}
