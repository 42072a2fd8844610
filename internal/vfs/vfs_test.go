package vfs

import (
	"io"
	"testing"
	"testing/quick"
)

func TestMemFSCreateOpenReadWrite(t *testing.T) {
	fs := NewMem()
	f, err := fs.Create("dir/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := fs.Open("dir/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello world" {
		t.Fatalf("read %q", buf)
	}
	if size, _ := g.Size(); size != 11 {
		t.Fatalf("Size = %d", size)
	}
}

func TestMemFSReadAtBounds(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("f")
	f.Write([]byte("abc"))
	buf := make([]byte, 2)
	if n, err := f.ReadAt(buf, 2); n != 1 || err != io.EOF {
		t.Fatalf("partial read = %d, %v", n, err)
	}
	if _, err := f.ReadAt(buf, 10); err != io.EOF {
		t.Fatalf("past-end read err = %v", err)
	}
}

func TestMemFSWriteAtGrows(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("f")
	if _, err := f.WriteAt([]byte("xy"), 5); err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 7 {
		t.Fatalf("Size = %d, want 7", size)
	}
	buf := make([]byte, 2)
	if _, err := f.ReadAt(buf, 5); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "xy" {
		t.Fatalf("read %q", buf)
	}
}

func TestMemFSRenameRemoveExists(t *testing.T) {
	fs := NewMem()
	fs.Create("a")
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") || !fs.Exists("b") {
		t.Fatal("rename did not move the file")
	}
	if err := fs.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("b") {
		t.Fatal("remove left the file")
	}
	if err := fs.Remove("b"); !IsNotExist(err) {
		t.Fatalf("second remove err = %v", err)
	}
	if _, err := fs.Open("nope"); !IsNotExist(err) {
		t.Fatalf("open missing err = %v", err)
	}
}

func TestMemFSList(t *testing.T) {
	fs := NewMem()
	fs.Create("d/b")
	fs.Create("d/a")
	fs.Create("other/c")
	names, err := fs.List("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("List = %v", names)
	}
}

func TestCountingFS(t *testing.T) {
	cfs := NewCounting(NewMem())
	f, _ := cfs.Create("f")
	f.Write(make([]byte, 100))
	g, _ := cfs.Open("f")
	buf := make([]byte, 40)
	g.ReadAt(buf, 0)
	g.ReadAt(buf, 40)
	s := cfs.Stats.Snapshot()
	if s.WriteOps != 1 || s.WriteBytes != 100 {
		t.Fatalf("write stats = %+v", s)
	}
	if s.ReadOps != 2 || s.ReadBytes != 80 {
		t.Fatalf("read stats = %+v", s)
	}
	d := cfs.Stats.Snapshot().Sub(s)
	if d.ReadOps != 0 || d.WriteOps != 0 {
		t.Fatalf("delta = %+v", d)
	}
}

// TestCountingOpenFilesGauge checks the open-file gauge moves once per open
// and once per handle's first Close, and never on reads or writes.
func TestCountingOpenFilesGauge(t *testing.T) {
	cfs := NewCounting(NewMem())
	f, _ := cfs.Create("f")
	f.Write(make([]byte, 100))
	g, _ := cfs.Open("f")
	if _, err := cfs.Open("missing"); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
	if n := cfs.Stats.OpenFiles.Load(); n != 2 {
		t.Fatalf("OpenFiles = %d after Create+Open, want 2", n)
	}
	buf := make([]byte, 10)
	for i := 0; i < 5; i++ {
		g.ReadAt(buf, 0)
	}
	if n := cfs.Stats.OpenFiles.Load(); n != 2 {
		t.Fatalf("OpenFiles = %d after reads, want 2", n)
	}
	f.Close()
	f.Close()
	if n := cfs.Stats.OpenFiles.Load(); n != 1 {
		t.Fatalf("OpenFiles = %d after a double Close, want 1", n)
	}
	g.Close()
	if n := cfs.Stats.OpenFiles.Load(); n != 0 {
		t.Fatalf("OpenFiles = %d after closing every handle, want 0", n)
	}
}

func TestFaultFSWriteInjection(t *testing.T) {
	ffs := NewFault(NewMem())
	f, _ := ffs.Create("f")
	ffs.FailAfterWrites(2)
	if _, err := f.Write([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("2")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("3")); err != ErrInjected {
		t.Fatalf("third write err = %v, want injected", err)
	}
	ffs.Reset()
	if _, err := f.Write([]byte("4")); err != nil {
		t.Fatalf("write after reset: %v", err)
	}
}

func TestFaultFSCreateAndReadInjection(t *testing.T) {
	ffs := NewFault(NewMem())
	ffs.FailCreates(1)
	if _, err := ffs.Create("x"); err != ErrInjected {
		t.Fatalf("create err = %v", err)
	}
	f, err := ffs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	ffs.SetFailReads(true)
	if _, err := f.ReadAt(make([]byte, 1), 0); err != ErrInjected {
		t.Fatalf("read err = %v", err)
	}
	ffs.SetFailReads(false)
	if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("read after clear: %v", err)
	}
}

// TestMemFileWriteReadProperty checks Write/ReadAt agreement over random
// chunk sequences.
func TestMemFileWriteReadProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fs := NewMem()
		file, _ := fs.Create("f")
		var all []byte
		for _, c := range chunks {
			file.Write(c)
			all = append(all, c...)
		}
		if len(all) == 0 {
			return true
		}
		got := make([]byte, len(all))
		if _, err := file.ReadAt(got, 0); err != nil && err != io.EOF {
			return false
		}
		return string(got) == string(all)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultFSSyncRemoveRenameInjection(t *testing.T) {
	ffs := NewFault(NewMem())
	f, _ := ffs.Create("f")
	ffs.FailSyncs(1)
	if err := f.Sync(); err != ErrInjected {
		t.Fatalf("sync err = %v, want injected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	ffs.FailRemoves(1)
	if err := ffs.Remove("f"); err != ErrInjected {
		t.Fatalf("remove err = %v, want injected", err)
	}
	if err := ffs.Remove("f"); err != nil {
		t.Fatalf("second remove: %v", err)
	}
	ffs.Create("a")
	ffs.FailRenames(1)
	if err := ffs.Rename("a", "b"); err != ErrInjected {
		t.Fatalf("rename err = %v, want injected", err)
	}
	if err := ffs.Rename("a", "b"); err != nil {
		t.Fatalf("second rename: %v", err)
	}
}

// TestFaultFSTarget checks injection only applies to matching file names.
func TestFaultFSTarget(t *testing.T) {
	ffs := NewFault(NewMem())
	ffs.Target(".sst")
	ffs.FailCreates(1)
	if _, err := ffs.Create("db/000001.log"); err != nil {
		t.Fatalf("non-target create failed: %v", err)
	}
	if _, err := ffs.Create("db/000002.sst"); err != ErrInjected {
		t.Fatalf("target create err = %v, want injected", err)
	}
}

// TestFaultFSProbabilistic checks the seeded probabilistic mode fails an
// expected fraction of operations and is deterministic per seed.
func TestFaultFSProbabilistic(t *testing.T) {
	run := func(seed int64) int {
		ffs := NewFault(NewMem())
		f, _ := ffs.Create("f")
		ffs.FailProbability(seed, 0.3)
		fails := 0
		for i := 0; i < 1000; i++ {
			if _, err := f.Write([]byte("x")); err != nil {
				fails++
			}
		}
		return fails
	}
	n := run(42)
	if n < 200 || n > 400 {
		t.Fatalf("p=0.3 failed %d/1000 ops", n)
	}
	if again := run(42); again != n {
		t.Fatalf("same seed diverged: %d vs %d", n, again)
	}
	if other := run(43); other == n {
		t.Logf("different seeds coincided (possible but unlikely): %d", n)
	}
}

// TestFaultFSInjectedError checks the injected error is swappable (ENOSPC
// simulation for the error-classification tests).
func TestFaultFSInjectedError(t *testing.T) {
	ffs := NewFault(NewMem())
	ffs.SetInjectedError(ErrNoSpace)
	f, _ := ffs.Create("f")
	ffs.FailAfterWrites(0)
	if _, err := f.Write([]byte("x")); err != ErrNoSpace {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	ffs.Reset()
	ffs.FailAfterWrites(0)
	if _, err := f.Write([]byte("x")); err != ErrInjected {
		t.Fatalf("after reset err = %v, want ErrInjected", err)
	}
}

// TestFaultFSCorruptWrites checks silent corruption flips exactly one byte
// and reports success to the writer.
func TestFaultFSCorruptWrites(t *testing.T) {
	ffs := NewFault(NewMem())
	f, _ := ffs.Create("f")
	ffs.CorruptWrites(1)
	data := []byte("hello world")
	if n, err := f.Write(data); n != len(data) || err != nil {
		t.Fatalf("corrupt write reported n=%d err=%v", n, err)
	}
	got := make([]byte, len(data))
	f.ReadAt(got, 0)
	diff := 0
	for i := range data {
		if got[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt write changed %d bytes, want 1 (%q)", diff, got)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("second write: %v", err)
	}
	clean := make([]byte, len(data))
	f.ReadAt(clean, int64(len(data)))
	if string(clean) != string(data) {
		t.Fatalf("second write corrupted too: %q", clean)
	}
}
