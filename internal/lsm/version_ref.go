package lsm

import (
	"adcache/internal/manifest"
	"adcache/internal/vfs"
)

// versionHandle reference-counts a Version so that in-flight reads can pin
// the file set they iterate while compactions install newer versions.
// Obsolete files are closed and deleted only once no live handle references
// them.
type versionHandle struct {
	v    *manifest.Version
	refs int // guarded by DB.verMu
}

// acquireVersion pins the current version for a read operation.
func (d *DB) acquireVersion() *versionHandle {
	d.verMu.Lock()
	h := d.current
	h.refs++
	d.verMu.Unlock()
	return h
}

// releaseVersion unpins h, garbage-collecting obsolete files when the last
// reference to a superseded version drops. The readers that GC retires are
// closed later, next to the unlink in deleteObsoleteFiles, so a Get never
// pays for an munmap here; only after Close, when no manifest save is left
// to do it, does the releasing goroutine close them itself.
func (d *DB) releaseVersion(h *versionHandle) {
	d.verMu.Lock()
	h.refs--
	if h.refs == 0 && (h != d.current || d.shut) {
		delete(d.live, h)
		d.gcFilesLocked()
	}
	var retired []*tableEntry
	if d.shut {
		retired, d.retired = d.retired, nil
	}
	d.verMu.Unlock()
	d.tc.closeTables(retired)
}

// installVersion publishes v as the current version. obsolete lists file
// numbers no longer part of any future version; they are deleted as soon as
// no pinned version references them. Caller holds d.mu.
func (d *DB) installVersion(v *manifest.Version, obsolete []uint64) {
	d.verMu.Lock()
	old := d.current
	h := &versionHandle{v: v, refs: 1} // the "current" reference
	d.current = h
	d.live[h] = struct{}{}
	d.version = v
	for _, fn := range obsolete {
		d.zombies[fn] = true
	}
	if old != nil {
		old.refs--
		if old.refs == 0 {
			delete(d.live, old)
		}
	}
	d.gcFilesLocked()
	d.verMu.Unlock()

	info := ShapeInfo{
		NonEmptyLevels: v.NumNonEmptyLevels(),
		SortedRuns:     v.NumSortedRuns(),
		L0Files:        len(v.Levels[0]),
	}
	for _, level := range v.Levels {
		for _, f := range level {
			info.TotalEntries += f.NumEntries
			info.TotalBytes += f.Size
		}
	}
	d.shapeInfo.Store(info)
}

// gcFilesLocked retires zombie files referenced by no live version: their
// readers leave the table cache for d.retired, and the files queue for
// deletion. After Close (d.shut) it also retires every other open table no
// live version references, so the last iterator release leaves nothing
// open. Caller holds d.verMu.
func (d *DB) gcFilesLocked() {
	if len(d.zombies) == 0 && !d.shut {
		return
	}
	referenced := make(map[uint64]bool)
	for h := range d.live {
		for _, level := range h.v.Levels {
			for _, f := range level {
				referenced[f.FileNum] = true
			}
		}
	}
	for fn := range d.zombies {
		if referenced[fn] {
			continue
		}
		delete(d.zombies, fn)
		d.retireLocked(fn)
		// Deferred, not deleted: the on-disk manifest may still reference
		// this file. Physical removal happens after the next successful
		// manifest save (deleteObsoleteFiles) — a crash in between must
		// recover from a manifest whose whole file set is still present.
		d.deletable = append(d.deletable, fn)
	}
	if d.shut {
		for _, fn := range d.tc.openFiles() {
			if !referenced[fn] {
				d.retireLocked(fn)
			}
		}
	}
}

// retireLocked moves fileNum's reader, if open, from the table cache to
// d.retired. Caller holds d.verMu.
func (d *DB) retireLocked(fileNum uint64) {
	if e := d.tc.release(fileNum); e != nil {
		d.retired = append(d.retired, e)
	}
}

// deleteObsoleteFiles closes the readers the version GC retired and
// physically removes the files it queued. Called only after a manifest that
// no longer references them has been durably saved; anything queued
// afterwards waits for the next save (or, if the process dies first, for
// the orphan sweep on reopen). Readers close before their files are
// unlinked, so no mapping of a deleted table ever exists.
func (d *DB) deleteObsoleteFiles() {
	d.verMu.Lock()
	pending, retired := d.deletable, d.retired
	d.deletable, d.retired = nil, nil
	d.verMu.Unlock()
	d.tc.closeTables(retired)
	for _, fn := range pending {
		// Removal failures are harmless (the file may already be gone);
		// the next reopen's orphan sweep retries.
		if err := d.fs.Remove(sstPath(d.opts.Dir, fn)); err == nil || vfs.IsNotExist(err) {
			d.tc.forget(fn)
		}
	}
}

// shutTables drops the current version's own reference for Close, closing
// every reader no open iterator still pins; the iterators' releases close
// the rest. Caller holds compactMu, so no compaction is reading through the
// current version's readers.
func (d *DB) shutTables() {
	d.verMu.Lock()
	d.shut = true
	d.verMu.Unlock()
	d.releaseVersion(d.current)
}
