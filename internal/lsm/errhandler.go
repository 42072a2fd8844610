package lsm

import (
	"errors"
	"fmt"
	"time"

	"adcache/internal/block"
	"adcache/internal/keys"
	"adcache/internal/manifest"
	"adcache/internal/sstable"
	"adcache/internal/vfs"
)

// This file is the engine's background error handler — the analogue of
// RocksDB's ErrorHandler/auto-resume machinery. Background flush and
// compaction failures are classified and either retried with capped
// exponential backoff (transient I/O, out-of-space, paranoid-check rejects)
// or parked in an explicit read-only degraded mode (corruption of durable
// state) that DB.Resume exits. The pre-existing behaviour — one transient
// error poisoning a sticky bgErr until a manual Flush — is gone.

// ErrReadOnly is returned by writes while the DB is in read-only degraded
// mode. The triggering error is attached; errors.Is(err, ErrReadOnly) holds.
var ErrReadOnly = errors.New("lsm: database is read-only after a background corruption error; call Resume")

// BgErrorKind classifies a background failure for the retry policy.
type BgErrorKind int

const (
	// BgNone: no background error.
	BgNone BgErrorKind = iota
	// BgTransient: an I/O failure with nothing corrupt installed in the
	// tree (failed create/write/sync, or a paranoid-check reject whose
	// output was discarded). Retried with backoff.
	BgTransient
	// BgNoSpace: the device is full. Retried with backoff — space frees up
	// when compactions or the operator delete data.
	BgNoSpace
	// BgCorruption: durable state failed a checksum or structural check.
	// Retrying cannot help; the DB degrades to read-only until Resume.
	BgCorruption
)

// String names the kind for metrics and logs.
func (k BgErrorKind) String() string {
	switch k {
	case BgNone:
		return "none"
	case BgTransient:
		return "transient"
	case BgNoSpace:
		return "no-space"
	case BgCorruption:
		return "corruption"
	}
	return "unknown"
}

// bgState is the error handler's mode. Guarded by d.mu.
type bgState int32

const (
	bgHealthy bgState = iota
	bgRetrying
	bgReadOnly
)

func (s bgState) String() string {
	switch s {
	case bgHealthy:
		return "healthy"
	case bgRetrying:
		return "retrying"
	case bgReadOnly:
		return "read-only"
	}
	return "unknown"
}

// paranoidError marks a flush/compaction output that failed its pre-install
// verification. The bad table was deleted before this error was raised, so
// nothing durable is corrupt — the write is retried, not escalated.
type paranoidError struct {
	fileNum uint64
	err     error
}

func (e *paranoidError) Error() string {
	return fmt.Sprintf("lsm: paranoid check rejected table %06d: %v", e.fileNum, e.err)
}

func (e *paranoidError) Unwrap() error { return e.err }

// classifyBgError maps a background failure onto the retry policy. The
// paranoid marker is checked first: its cause wraps a corruption error, but
// the corrupt bytes never entered the tree, so it stays retryable.
func classifyBgError(err error) BgErrorKind {
	var pe *paranoidError
	if errors.As(err, &pe) {
		return BgTransient
	}
	if errors.Is(err, sstable.ErrCorrupt) || errors.Is(err, block.ErrCorrupt) {
		return BgCorruption
	}
	if errors.Is(err, vfs.ErrNoSpace) {
		return BgNoSpace
	}
	return BgTransient
}

// logf reports handler events through Options.Logf, if installed.
func (d *DB) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// backoffDelay computes the capped exponential delay before retry attempt
// (1-based).
func backoffDelay(base, cap time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// noteBgError records a background failure and decides its fate: retry
// (with the delay to wait) or park read-only. Called by the flush worker and
// by foreground Flush/Compact on error in background mode.
func (d *DB) noteBgError(err error) (retry bool, delay time.Duration) {
	kind := classifyBgError(err)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bgCause = err
	d.bgKind = kind
	if kind == BgCorruption {
		d.bgState = bgReadOnly
		// Wake stalled writers so they fail fast with ErrReadOnly instead
		// of blocking on backpressure that will never lift.
		d.bgCond.Broadcast()
		d.logf("lsm: corruption in background work, entering read-only mode: %v", err)
		return false, 0
	}
	d.bgAttempt++
	d.bgRetries++
	if d.opts.BgMaxRetries > 0 && d.bgAttempt >= d.opts.BgMaxRetries {
		d.bgState = bgReadOnly
		d.bgCond.Broadcast()
		d.logf("lsm: background error persisted through %d retries, entering read-only mode: %v", d.bgAttempt, err)
		return false, 0
	}
	d.bgState = bgRetrying
	delay = backoffDelay(d.opts.BgRetryBase, d.opts.BgRetryMaxDelay, d.bgAttempt)
	d.logf("lsm: background %s error (attempt %d, retry in %v): %v", kind, d.bgAttempt, delay, err)
	return true, delay
}

// clearBgError resets the handler after successful background work.
// Read-only mode is sticky: only Resume exits it.
func (d *DB) clearBgError() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bgState == bgReadOnly {
		return
	}
	if d.bgState == bgRetrying {
		d.logf("lsm: background error cleared after %d attempts", d.bgAttempt)
	}
	d.bgState = bgHealthy
	d.bgCause = nil
	d.bgKind = BgNone
	d.bgAttempt = 0
}

// readOnlyErrLocked builds the fail-fast write error. Caller holds d.mu.
func (d *DB) readOnlyErrLocked() error {
	if d.bgCause != nil {
		return fmt.Errorf("%w (cause: %v)", ErrReadOnly, d.bgCause)
	}
	return ErrReadOnly
}

// Resume exits read-only degraded mode: it clears the background error
// state, synchronously re-drives the flush/compaction backlog so the caller
// learns whether the tree is healthy again, and restarts background
// scheduling. Resuming a healthy DB is a no-op drain. If the backlog still
// fails, the error is re-classified (the DB may re-enter read-only) and
// returned.
func (d *DB) Resume() error {
	if d.closing.Load() {
		return ErrClosed
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if d.bgState == bgReadOnly {
		d.resumes++
		d.logf("lsm: resuming from read-only mode (was: %v)", d.bgCause)
	}
	d.bgState = bgHealthy
	d.bgCause = nil
	d.bgKind = BgNone
	d.bgAttempt = 0
	d.bgCond.Broadcast()
	d.mu.Unlock()

	if err := d.drainAndCompact(!d.opts.DisableAutoCompaction); err != nil {
		if !d.opts.InlineCompaction && !errors.Is(err, ErrClosed) {
			d.noteBgError(err)
			d.notifyWorker()
		}
		return err
	}
	if !d.opts.InlineCompaction {
		d.notifyWorker()
	}
	return nil
}

// verifyNewTable re-reads a just-written, not-yet-installed table and
// checks it end to end: block checksums (every read re-verifies CRCs), key
// ordering, entry count and manifest bounds. Options.ParanoidChecks runs it
// on every flush/compaction output before the version install, so a bad
// write surfaces as a retried error instead of persisted corruption.
func (d *DB) verifyNewTable(meta *manifest.FileMeta) error {
	f, err := d.fs.Open(sstPath(d.opts.Dir, meta.FileNum))
	if err != nil {
		return err
	}
	defer f.Close()
	// A fresh uncached reader: the table cache must not learn about (or
	// pin) a file that may be rejected and deleted.
	r, err := sstable.NewReader(f, sstable.ReaderOptions{FileNum: meta.FileNum})
	if err != nil {
		return err
	}
	it, err := r.NewIterNoCache()
	if err != nil {
		return err
	}
	defer it.Close()
	var prev keys.InternalKey
	var count uint64
	for ok := it.First(); ok; ok = it.Next() {
		ik := it.Key()
		if prev != nil && keys.Compare(prev, ik) >= 0 {
			return fmt.Errorf("keys out of order (%s >= %s)", prev, ik)
		}
		if count == 0 && keys.Compare(ik, meta.Smallest) != 0 {
			return fmt.Errorf("first key %s != meta smallest %s", ik, meta.Smallest)
		}
		prev = append(prev[:0], ik...)
		count++
	}
	if err := it.Err(); err != nil {
		return err
	}
	if count != meta.NumEntries {
		return fmt.Errorf("%d entries, meta says %d", count, meta.NumEntries)
	}
	if count > 0 && keys.Compare(prev, meta.Largest) != 0 {
		return fmt.Errorf("last key %s != meta largest %s", prev, meta.Largest)
	}
	return nil
}

// paranoidCheck verifies meta when ParanoidChecks is on. On failure the bad
// file is deleted and a retryable paranoidError is returned.
func (d *DB) paranoidCheck(meta *manifest.FileMeta) error {
	if !d.opts.ParanoidChecks {
		return nil
	}
	if err := d.verifyNewTable(meta); err != nil {
		path := sstPath(d.opts.Dir, meta.FileNum)
		if d.fs.Exists(path) {
			d.fs.Remove(path)
		}
		return &paranoidError{fileNum: meta.FileNum, err: err}
	}
	return nil
}
