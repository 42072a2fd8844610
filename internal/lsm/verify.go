package lsm

import (
	"bytes"
	"fmt"

	"adcache/internal/keys"
)

// IntegrityReport summarises a VerifyIntegrity pass.
type IntegrityReport struct {
	Files         int
	Entries       uint64
	BlocksChecked int64
}

// VerifyIntegrity reads every table in the current version, validating
// block checksums (every block read re-verifies its CRC), per-file key
// ordering, agreement with the manifest's bounds and entry counts, and the
// level invariants (L1+ files sorted and non-overlapping). It is the
// engine's fsck, exposed through `lsmtool check`.
func (d *DB) VerifyIntegrity() (IntegrityReport, error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return IntegrityReport{}, ErrClosed
	}
	h := d.acquireVersion()
	d.mu.RUnlock()
	defer d.releaseVersion(h)

	var rep IntegrityReport
	for level, files := range h.v.Levels {
		var prevLargest []byte
		for i, f := range files {
			// Level invariants (L1+ only; L0 may overlap).
			if level > 0 {
				if i > 0 && bytes.Compare(f.Smallest.UserKey(), prevLargest) <= 0 {
					return rep, fmt.Errorf("level %d: file %06d overlaps predecessor (%q <= %q)",
						level, f.FileNum, f.Smallest.UserKey(), prevLargest)
				}
				prevLargest = f.Largest.UserKey()
			}

			r, err := d.tc.get(f.FileNum)
			if err != nil {
				return rep, fmt.Errorf("level %d file %06d: %w", level, f.FileNum, err)
			}
			it, err := r.NewIterNoCache()
			if err != nil {
				return rep, err
			}
			var prev keys.InternalKey
			var count uint64
			for ok := it.First(); ok; ok = it.Next() {
				ik := it.Key()
				if prev != nil && keys.Compare(prev, ik) >= 0 {
					return rep, fmt.Errorf("file %06d: keys out of order (%s >= %s)",
						f.FileNum, prev, ik)
				}
				prev = append(prev[:0], ik...)
				count++
			}
			if err := it.Err(); err != nil {
				return rep, fmt.Errorf("file %06d: %w", f.FileNum, err)
			}
			if count != f.NumEntries {
				return rep, fmt.Errorf("file %06d: %d entries, manifest says %d",
					f.FileNum, count, f.NumEntries)
			}
			if count > 0 {
				if keys.Compare(prev, f.Largest) != 0 {
					return rep, fmt.Errorf("file %06d: largest key %s != manifest %s",
						f.FileNum, prev, f.Largest)
				}
			}
			rep.Files++
			rep.Entries += count
			rep.BlocksChecked += int64(r.Size()) / int64(d.opts.BlockSize)
		}
	}
	return rep, nil
}
