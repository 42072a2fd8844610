package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adcache/internal/keys"
	"adcache/internal/vfs"
)

func TestCompressFlateRoundTrip(t *testing.T) {
	for _, src := range [][]byte{
		bytes.Repeat([]byte("abcdefgh"), 512),
		[]byte("short but repeated repeated repeated repeated"),
		make([]byte, 4096), // all zero: maximally compressible
	} {
		payload, ok := compressFlate(src)
		if !ok {
			t.Fatalf("compressFlate rejected compressible input of %d bytes", len(src))
		}
		if len(payload) >= len(src) {
			t.Fatalf("compressed %d bytes into %d", len(src), len(payload))
		}
		got, err := decompressFlate(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestCompressFlateRefusesIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 4096)
	rng.Read(src)
	if _, ok := compressFlate(src); ok {
		t.Fatal("random data reported as compressible")
	}
}

func TestDecodeBlockRejectsCorruptPayloads(t *testing.T) {
	cases := map[string][]byte{
		"empty image":    {},
		"unknown type":   {1, 2, 3, 0x7F},
		"bad prefix":     {0x80, byte(CompressionFlate)}, // unterminated uvarint
		"truncated body": append([]byte{200, 1}, byte(CompressionFlate)),
	}
	for name, img := range cases {
		if _, err := decodeBlock(img); err == nil {
			t.Errorf("%s: decodeBlock accepted %v", name, img)
		}
	}
	// A length prefix past maxDecodedBlock must be rejected before any
	// allocation happens.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, byte(CompressionFlate)}
	if _, err := decodeBlock(huge); err == nil {
		t.Error("implausible decoded size accepted")
	}
}

// buildTableValues writes n entries with the given value generator under
// opts, returning the table's meta.
func buildTableValues(t testing.TB, fs vfs.FS, name string, n int, opts WriterOptions, value func(i int) []byte) Meta {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, opts)
	for i := 0; i < n; i++ {
		ik := keys.Make([]byte(fmt.Sprintf("key%06d", i)), uint64(i+1), keys.KindSet)
		if err := w.Add(ik, value(i)); err != nil {
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

// TestCompressionEquivalence writes the same keyspace with CompressionNone
// and CompressionFlate and demands byte-identical query and iteration
// results, plus a genuinely smaller physical file for the compressed table.
func TestCompressionEquivalence(t *testing.T) {
	fs := vfs.NewMem()
	value := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("val%06d-", i)), 8)
	}
	const n = 2000
	metaNone := buildTableValues(t, fs, "none.sst", n, WriterOptions{BlockSize: 1024}, value)
	metaFlate := buildTableValues(t, fs, "flate.sst", n,
		WriterOptions{BlockSize: 1024, Compression: CompressionFlate}, value)

	if metaFlate.Size >= metaNone.Size {
		t.Fatalf("flate table (%d bytes) not smaller than none (%d bytes)",
			metaFlate.Size, metaNone.Size)
	}
	if metaFlate.LogicalSize <= metaFlate.Size {
		t.Fatalf("flate LogicalSize %d <= physical Size %d",
			metaFlate.LogicalSize, metaFlate.Size)
	}
	if metaNone.LogicalSize != metaNone.Size {
		t.Fatalf("uncompressed LogicalSize %d != Size %d",
			metaNone.LogicalSize, metaNone.Size)
	}

	rNone := openTable(t, fs, "none.sst", ReaderOptions{})
	rFlate := openTable(t, fs, "flate.sst", ReaderOptions{})

	// Point lookups agree, present and absent.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		k := []byte(fmt.Sprintf("key%06d", i))
		v1, _, ok1, err1 := rNone.Get(k, keys.MaxSeq, nil)
		v2, _, ok2, err2 := rFlate.Get(k, keys.MaxSeq, nil)
		if err1 != nil || err2 != nil || !ok1 || !ok2 || !bytes.Equal(v1, v2) {
			t.Fatalf("Get(%d) diverges: %q/%v/%v vs %q/%v/%v", i, v1, ok1, err1, v2, ok2, err2)
		}
	}
	if _, _, ok, _ := rFlate.Get([]byte("missing"), keys.MaxSeq, nil); ok {
		t.Fatal("flate table found a missing key")
	}

	// Full iterations are entry-for-entry identical.
	it1, err := rNone.NewIter(nil)
	if err != nil {
		t.Fatal(err)
	}
	it2, err := rFlate.NewIter(nil)
	if err != nil {
		t.Fatal(err)
	}
	ok1, ok2 := it1.First(), it2.First()
	count := 0
	for ok1 && ok2 {
		if !bytes.Equal(it1.Key(), it2.Key()) || !bytes.Equal(it1.Value(), it2.Value()) {
			t.Fatalf("entry %d diverges: %s vs %s", count, it1.Key(), it2.Key())
		}
		count++
		ok1, ok2 = it1.Next(), it2.Next()
	}
	if ok1 != ok2 || count != n {
		t.Fatalf("iterations ended unevenly: ok1=%v ok2=%v count=%d", ok1, ok2, count)
	}
	if it1.Err() != nil || it2.Err() != nil {
		t.Fatalf("iter errors: %v / %v", it1.Err(), it2.Err())
	}
}

// TestCompressedCorruptionDetected flips one byte of a compressed table and
// expects the block checksum — which covers the compressed payload — to
// refuse it.
func TestCompressedCorruptionDetected(t *testing.T) {
	fs := vfs.NewMem()
	buildTableValues(t, fs, "t.sst", 500,
		WriterOptions{Compression: CompressionFlate},
		func(i int) []byte { return bytes.Repeat([]byte("v"), 64) })
	f, _ := fs.Open("t.sst")
	f.WriteAt([]byte{0xFF}, 10)
	r, err := NewReader(f, ReaderOptions{})
	if err == nil {
		if _, _, _, err := r.Get([]byte("key000001"), keys.MaxSeq, nil); err == nil {
			t.Fatal("corrupted compressed block not detected")
		}
	}
}

// TestCompressedCacheChargesPhysicalBytes checks that a reader over a
// compressed table inserts the compressed image while reporting the logical
// (decoded) size to the cache.
func TestCompressedCacheChargesPhysicalBytes(t *testing.T) {
	fs := vfs.NewMem()
	buildTableValues(t, fs, "t.sst", 1000,
		WriterOptions{Compression: CompressionFlate},
		func(i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("v%04d", i)), 16) })
	cache := newLogicalFakeCache()
	r := openTable(t, fs, "t.sst", ReaderOptions{Cache: cache, FileNum: 3})
	if _, _, ok, err := r.Get([]byte("key000500"), keys.MaxSeq, nil); !ok || err != nil {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if cache.inserts != 1 {
		t.Fatalf("inserts = %d", cache.inserts)
	}
	if cache.lastLogical <= cache.lastPhysical {
		t.Fatalf("logical %d not larger than physical %d for a compressed block",
			cache.lastLogical, cache.lastPhysical)
	}
	// A repeat read must decode the cached image, not hit the file again.
	var s ReadStats
	v, _, ok, err := r.Get([]byte("key000500"), keys.MaxSeq, &s)
	if !ok || err != nil || s.BlockHits != 1 || s.BlockMisses != 0 {
		t.Fatalf("cached read: ok=%v err=%v stats=%+v", ok, err, s)
	}
	want := bytes.Repeat([]byte("v0500"), 16)
	if !bytes.Equal(v, want) {
		t.Fatalf("cached read returned %q", v)
	}
}

type logicalFakeCache struct {
	store        map[[2]uint64][]byte
	inserts      int
	lastPhysical int
	lastLogical  int
}

func newLogicalFakeCache() *logicalFakeCache {
	return &logicalFakeCache{store: map[[2]uint64][]byte{}}
}

func (c *logicalFakeCache) Get(fileNum, off uint64) ([]byte, bool) {
	b, ok := c.store[[2]uint64{fileNum, off}]
	return b, ok
}

func (c *logicalFakeCache) Insert(fileNum, off uint64, data []byte, logical int, scan bool) {
	c.store[[2]uint64{fileNum, off}] = data
	c.inserts++
	c.lastPhysical = len(data)
	c.lastLogical = logical
}

// Detach is a no-op: the tests read MemFS tables, whose images never alias
// a memory map.
func (c *logicalFakeCache) Detach([]uint64) {}

// FuzzBlockTrailer exercises the physical block codec: arbitrary payloads
// must round-trip through both codecs, and decodeBlock must reject (never
// panic on) arbitrary images.
func FuzzBlockTrailer(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("hello world"))
	f.Add(bytes.Repeat([]byte("block"), 1000))
	f.Add([]byte{0x80, 0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Stored raw: decode must alias the payload exactly.
		img := append(append([]byte{}, data...), byte(CompressionNone))
		got, err := decodeBlock(img)
		if err != nil {
			t.Fatalf("decode of stored block failed: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("stored round trip mismatch")
		}
		// Compressed, when it shrinks: decode must reproduce the input.
		if payload, ok := compressFlate(data); ok {
			img := append(payload, byte(CompressionFlate))
			got, err := decodeBlock(img)
			if err != nil {
				t.Fatalf("decode of compressed block failed: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("compressed round trip mismatch")
			}
		}
		// Arbitrary bytes as a flate image: any outcome but a panic or an
		// over-allocation is fine.
		decodeBlock(append(append([]byte{}, data...), byte(CompressionFlate)))
	})
}
