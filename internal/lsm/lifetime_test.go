package lsm

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adcache/internal/cache/blockcache"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// handleFS wraps an FS and counts the open handles per file, so a test can
// tell a released handle from a leaked one. Close releases a handle once,
// however often it is called.
type handleFS struct {
	vfs.FS
	mu   sync.Mutex
	open map[string]int
}

func newHandleFS(fs vfs.FS) *handleFS { return &handleFS{FS: fs, open: make(map[string]int)} }

func (h *handleFS) Create(name string) (vfs.File, error) {
	return h.track(name, h.FS.Create)
}

func (h *handleFS) Open(name string) (vfs.File, error) {
	return h.track(name, h.FS.Open)
}

func (h *handleFS) track(name string, open func(string) (vfs.File, error)) (vfs.File, error) {
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.open[name]++
	h.mu.Unlock()
	return &handleFile{File: f, fs: h, name: name}, nil
}

// openWith reports the open handles on files whose name ends in suffix.
func (h *handleFS) openWith(suffix string) map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]int)
	for name, n := range h.open {
		if n > 0 && strings.HasSuffix(name, suffix) {
			out[name] = n
		}
	}
	return out
}

type handleFile struct {
	vfs.File
	fs     *handleFS
	name   string
	closed bool
}

func (f *handleFile) Close() error {
	f.fs.mu.Lock()
	if !f.closed {
		f.closed = true
		f.fs.open[f.name]--
	}
	f.fs.mu.Unlock()
	return f.File.Close()
}

// TestReplayClosesWALs is the regression test for the replay handle leak:
// every log Open replays must be closed again, or each reopen leaks one
// descriptor per replayed log (and, on a real disk, keeps the retired
// log's space allocated until a finalizer runs).
func TestReplayClosesWALs(t *testing.T) {
	hfs := newHandleFS(vfs.NewMem())
	opts := testOptions(hfs)
	opts.MemTableSize = 1 << 20 // keep every write in the log
	db := mustOpen(t, opts)
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if open := hfs.openWith(".log"); len(open) != 0 {
		t.Fatalf("logs still open after Close: %v", open)
	}

	db2 := mustOpen(t, opts)
	defer db2.Close()
	if _, ok, err := db2.Get(key(7)); err != nil || !ok {
		t.Fatalf("replayed write lost: ok=%v err=%v", ok, err)
	}
	active := walPath(opts.Dir, db2.walNum)
	for name, n := range hfs.openWith(".log") {
		if name != active {
			t.Fatalf("replayed log %s left with %d open handle(s)", name, n)
		}
	}
}

// TestReplayClosesWALOnError checks the same contract on the failure path:
// a replay that errors out still closes the log it opened.
func TestReplayClosesWALOnError(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	hfs := newHandleFS(ffs)
	opts := testOptions(hfs)
	opts.MemTableSize = 1 << 20
	db := mustOpen(t, opts)
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ffs.Target(".log")
	ffs.SetFailReads(true)
	if db2, err := Open(opts); err == nil {
		db2.Close()
		t.Fatal("Open succeeded although every log read failed")
	}
	if open := hfs.openWith(".log"); len(open) != 0 {
		t.Fatalf("failed replay leaked log handles: %v", open)
	}
}

// deletedTableMaps returns the lines of /proc/self/maps that map a deleted
// table under dir. Always empty off Linux.
func deletedTableMaps(t *testing.T, dir string) []string {
	t.Helper()
	if runtime.GOOS != "linux" {
		return nil
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) && strings.HasSuffix(line, ".sst (deleted)") {
			out = append(out, line)
		}
	}
	return out
}

// tableMaps counts the /proc/self/maps lines that map a file under dir.
// Always 0 off Linux.
func tableMaps(t *testing.T, dir string) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		return 0
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), dir+"/")
}

// liveFiles lists the current version's file numbers and byte total.
func liveFiles(db *DB) ([]uint64, int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var nums []uint64
	var size int64
	for _, level := range db.version.Levels {
		for _, f := range level {
			nums = append(nums, f.FileNum)
			size += int64(f.Size)
		}
	}
	slices.Sort(nums)
	return nums, size
}

// TestTableLifetimeOSFS drives many flush and compaction rounds on a real
// directory while point readers and open iterators run, with compaction
// prefetch and a block cache on, and checks the reader lifetime rule: a
// table is open exactly while a live version references it, no mapping of
// a deleted table ever exists, and after Close plus the last iterator
// release nothing is open or mapped. Run it under -race.
func TestTableLifetimeOSFS(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(vfs.NewOS())
	opts.Dir = dir
	opts.PrefetchOnCompaction = 4
	cache := &detachRecorder{Cache: blockcache.New(256 << 10)}
	opts.Strategy = &recorderStrategy{cache: cache}
	db := mustOpen(t, opts)

	const keySpace = 2000
	rounds := 30
	if raceEnabled {
		rounds = 12
	}
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		errMu   sync.Mutex
		readErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if readErr == nil {
			readErr = err
		}
		errMu.Unlock()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := db.Get(key(rng.Intn(keySpace))); err != nil {
					fail(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			it, err := db.NewIter()
			if err != nil {
				fail(err)
				return
			}
			n := 0
			for ok := it.SeekGE(key(rng.Intn(keySpace))); ok && n < 200; ok = it.Next() {
				n++
				if !bytes.HasPrefix(it.Value(), []byte("value")) {
					fail(errors.New("iterator returned a torn value"))
				}
			}
			err = it.Err()
			it.Close()
			if err != nil {
				fail(err)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		for i := 0; i < 400; i++ {
			k := rng.Intn(keySpace)
			if err := db.Put(key(k), val(round*keySpace+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if lines := deletedTableMaps(t, dir); len(lines) > 0 {
			t.Fatalf("round %d: deleted tables still mapped:\n%s", round, strings.Join(lines, "\n"))
		}
	}
	close(stop)
	wg.Wait()
	if readErr != nil {
		if errors.Is(readErr, os.ErrClosed) {
			t.Fatalf("a read reached a closed table: %v", readErr)
		}
		t.Fatalf("concurrent read failed: %v", readErr)
	}
	m := db.Metrics()
	if m.Compactions == 0 {
		t.Fatal("workload ran no compaction")
	}

	// At rest: one more save closes what the last readers' releases
	// retired, and a full scan opens every live table.
	if err := db.Put(key(0), val(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scan(nil, keySpace); err != nil {
		t.Fatal(err)
	}
	live, liveBytes := liveFiles(db)
	open := db.tc.openFiles()
	slices.Sort(open)
	if !slices.Equal(open, live) {
		t.Fatalf("open tables %v, live files %v", open, live)
	}
	m = db.Metrics()
	if m.OpenTables != int64(len(live)) {
		t.Fatalf("OpenTables = %d, want %d live files", m.OpenTables, len(live))
	}
	if runtime.GOOS == "linux" && m.MappedTableBytes != liveBytes {
		t.Fatalf("MappedTableBytes = %d, want the live tree's %d", m.MappedTableBytes, liveBytes)
	}

	// An iterator open across Close keeps its tables, now zombies, until
	// it is released.
	it, err := db.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	if !it.First() {
		t.Fatal("iterator over a non-empty tree is empty")
	}
	for i := 0; i < keySpace; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	pinned := db.Metrics().OpenTables
	if pinned == 0 {
		t.Fatal("Close closed the tables an open iterator pins")
	}
	for n := 0; it.Valid() && n < 500; n++ {
		if !bytes.HasPrefix(it.Value(), []byte("value")) {
			t.Fatal("pinned iterator read a torn value after Close")
		}
		it.Next()
	}
	if err := it.Err(); err != nil {
		t.Fatalf("pinned iterator failed after Close: %v", err)
	}
	if lines := deletedTableMaps(t, dir); len(lines) > 0 {
		t.Fatalf("deleted tables mapped after Close:\n%s", strings.Join(lines, "\n"))
	}
	it.Close()

	m = db.Metrics()
	if m.OpenTables != 0 || m.MappedTableBytes != 0 || m.OpenFiles != 0 {
		t.Fatalf("after Close and the last release: OpenTables=%d MappedTableBytes=%d OpenFiles=%d, want 0",
			m.OpenTables, m.MappedTableBytes, m.OpenFiles)
	}
	if n := tableMaps(t, dir); n != 0 {
		t.Fatalf("%d mappings of %s survive Close", n, dir)
	}
	// Every table the cache holds blocks of was mapped and is now closed,
	// so each must have been detached first.
	for fn := range cache.filled() {
		if !cache.detached(fn) {
			t.Fatalf("table %06d closed without detaching its cached blocks", fn)
		}
	}
	var prom bytes.Buffer
	db.MetricsRegistry().WritePrometheus(&prom)
	for _, series := range []string{"lsm_open_files 0", "lsm_open_tables 0", "lsm_mapped_table_bytes 0"} {
		if !strings.Contains(prom.String(), series+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", series, prom.String())
		}
	}
}

// detachRecorder is a block cache that records which files it cached
// blocks of and which files were detached.
type detachRecorder struct {
	*blockcache.Cache
	mu    sync.Mutex
	fills map[uint64]bool
	dets  map[uint64]bool
}

func (c *detachRecorder) Insert(fileNum, offset uint64, data []byte, logical int, scan bool) {
	c.mu.Lock()
	if c.fills == nil {
		c.fills = make(map[uint64]bool)
	}
	c.fills[fileNum] = true
	c.mu.Unlock()
	c.Cache.Insert(fileNum, offset, data, logical, scan)
}

func (c *detachRecorder) Detach(fileNums []uint64) {
	c.mu.Lock()
	if c.dets == nil {
		c.dets = make(map[uint64]bool)
	}
	for _, fn := range fileNums {
		c.dets[fn] = true
	}
	c.mu.Unlock()
	c.Cache.Detach(fileNums)
}

func (c *detachRecorder) filled() map[uint64]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.fills)
}

func (c *detachRecorder) detached(fileNum uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dets[fileNum]
}

type recorderStrategy struct {
	NoCache
	cache *detachRecorder
}

func (s *recorderStrategy) BlockCache() sstable.BlockCache { return s.cache }

// TestTableCacheRefusesReleasedFile checks that a table the version GC has
// retired is never silently reopened: while its file still exists (here, a
// failed unlink keeps it) get returns an error and opens nothing.
func TestTableCacheRefusesReleasedFile(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	opts := testOptions(ffs)
	opts.InlineCompaction = true
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	old, _ := liveFiles(db)
	for _, fn := range old {
		if _, err := db.tc.get(fn); err != nil {
			t.Fatal(err)
		}
	}

	ffs.Target(".sst")
	ffs.FailRemoves(1 << 20)
	for i := 0; i < 3000; i++ {
		if err := db.Put(key(i), val(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	live, _ := liveFiles(db)
	isLive := make(map[uint64]bool)
	for _, fn := range live {
		isLive[fn] = true
	}
	opened := db.Metrics().OpenTables
	refused := 0
	for _, fn := range old {
		if isLive[fn] {
			continue
		}
		if !ffs.Exists(sstPath(opts.Dir, fn)) {
			t.Fatalf("table %06d was unlinked despite the failing removes", fn)
		}
		if _, err := db.tc.get(fn); !errors.Is(err, errTableReleased) {
			t.Fatalf("get of released table %06d: err = %v, want errTableReleased", fn, err)
		}
		refused++
	}
	if refused == 0 {
		t.Fatal("compaction retired none of the original tables")
	}
	if got := db.Metrics().OpenTables; got != opened {
		t.Fatalf("refused gets changed OpenTables %d -> %d", opened, got)
	}
}

// TestPrefetchPinsItsVersion checks compaction prefetch reads only while
// holding a version pin of its own, beyond the current version's reference,
// so no compaction can retire and close an output it is reading.
func TestPrefetchPinsItsVersion(t *testing.T) {
	opts := subcompactOptions(vfs.NewMem(), 1)
	opts.PrefetchOnCompaction = 4
	opts.Strategy = &countingStrategy{}
	db := mustOpen(t, opts)
	defer db.Close()

	var calls, unpinned int
	prefetchIterDone = func(*sstable.Iter) {
		db.verMu.Lock()
		if db.current.refs < 2 {
			unpinned++
		}
		db.verMu.Unlock()
		calls++
	}
	defer func() { prefetchIterDone = nil }()

	applySubcompactWorkload(t, db)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("no compaction prefetch ran")
	}
	if unpinned > 0 {
		t.Fatalf("%d of %d prefetch reads ran without a version pin", unpinned, calls)
	}
}

// gateFS blocks the first table Create after arm until release, so a test
// can hold a compaction mid-merge with its input readers open.
type gateFS struct {
	vfs.FS
	armed   atomic.Bool
	hit     chan struct{}
	release chan struct{}
}

func (g *gateFS) Create(name string) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst") && g.armed.CompareAndSwap(true, false) {
		close(g.hit)
		<-g.release
	}
	return g.FS.Create(name)
}

// TestCloseWaitsForForegroundCompact holds a foreground Compact mid-merge
// on a real directory and calls Close: Close must wait for the merge, which
// reads through the current version's mapped tables, before it closes
// them. The Compact then finishes or reports ErrClosed.
func TestCloseWaitsForForegroundCompact(t *testing.T) {
	gfs := &gateFS{FS: vfs.NewOS(), hit: make(chan struct{}), release: make(chan struct{})}
	opts := testOptions(gfs)
	opts.Dir = t.TempDir()
	opts.DisableAutoCompaction = true
	// No background worker: its shutdown must not be what makes Close wait.
	opts.InlineCompaction = true
	db := mustOpen(t, opts)
	b := NewBatch()
	for i := 0; i < 3000; i++ {
		b.Put(key(i), val(i))
		if b.Len() == 500 {
			if err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
			b = NewBatch()
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	gfs.armed.Store(true)
	compacted := make(chan error, 1)
	go func() { compacted <- db.Compact() }()
	<-gfs.hit // the merge has opened its inputs and is writing output
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	select {
	case err := <-closed:
		t.Errorf("Close returned (err %v) while a Compact was mid-merge", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(gfs.release)
	if err := <-compacted; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact racing Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if m := db.Metrics(); m.OpenTables != 0 || m.OpenFiles != 0 {
		t.Fatalf("OpenTables=%d OpenFiles=%d after Close", m.OpenTables, m.OpenFiles)
	}
}
