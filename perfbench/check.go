package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"adcache/client"
)

// keyIndex parses a workload key ("user%020d") back to its index.
func keyIndex(key []byte) (int, bool) {
	if len(key) != 24 || !bytes.HasPrefix(key, []byte("user")) {
		return 0, false
	}
	n, err := strconv.Atoi(string(key[4:]))
	return n, err == nil
}

// digitsAt parses the n ASCII digits at b[off:] followed by a '-'.
func digitsAt(b []byte, off, n int) (int, bool) {
	if len(b) < off+n+1 || b[off+n] != '-' {
		return 0, false
	}
	v := 0
	for _, c := range b[off : off+n] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// valueFor reports whether v is a value the generator could have written
// for key index idx: the preload's "init%010d-" or a put's
// "v%016d-%010d-" prefix, each naming the key, at the generator's size.
func valueFor(idx int, v []byte) bool {
	if len(v) != valueSize {
		return false
	}
	if bytes.HasPrefix(v, []byte("init")) {
		got, ok := digitsAt(v, 4, 10)
		return ok && got == idx
	}
	if v[0] != 'v' {
		return false
	}
	if _, ok := digitsAt(v, 1, 16); !ok {
		return false
	}
	got, ok := digitsAt(v, 18, 10)
	return ok && got == idx
}

// scanResult checks a scan from key index start for n entries over a key
// space of numKeys keys, all of which exist (the preload writes every key
// and no workload deletes): keys strictly ascending from start, each value
// naming its own key, and exactly min(n, numKeys-start) entries.
func scanResult(start, n, numKeys int, kvs []client.KV) error {
	want := n
	if rest := numKeys - start; rest < want {
		want = rest
	}
	if len(kvs) != want {
		return fmt.Errorf("scan from %d for %d: got %d entries, want %d", start, n, len(kvs), want)
	}
	prev := start - 1
	for i, kv := range kvs {
		idx, ok := keyIndex(kv.Key)
		if !ok {
			return fmt.Errorf("scan from %d: entry %d has foreign key %q", start, i, kv.Key)
		}
		if idx <= prev {
			return fmt.Errorf("scan from %d: entry %d key %d not above %d", start, i, idx, prev)
		}
		if !valueFor(idx, kv.Value) {
			return fmt.Errorf("scan from %d: entry %d value %.30q does not name key %d", start, i, kv.Value, idx)
		}
		prev = idx
	}
	return nil
}

// failures counts failed operations and keeps the first few messages.
type failures struct {
	mu       sync.Mutex
	n        int
	mismatch int // failures of a correctness check (not transport errors)
	first    []string
}

func (f *failures) add(check bool, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if check {
		f.mismatch++
	}
	if len(f.first) < 10 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

// readBackSet returns, per key index, the value of the last acked put
// that no other write to the same key overlapped. A key with an
// overlapping or failed put has no single expected value and is left out.
func readBackSet(phases [][]opRec) map[int][]byte {
	type put struct {
		sent, done int64
		val        []byte
	}
	byKey := map[int][]put{}
	skip := map[int]bool{}
	for _, recs := range phases {
		for i := range recs {
			r := &recs[i]
			if r.kind != kindPut || r.done == 0 {
				continue
			}
			if r.failed {
				skip[r.idx] = true
				continue
			}
			byKey[r.idx] = append(byKey[r.idx], put{r.sent, r.done, r.op.Value})
		}
	}
	out := map[int][]byte{}
	for idx, ps := range byKey {
		if skip[idx] {
			continue
		}
		last := 0
		for i, p := range ps {
			if p.done > ps[last].done {
				last = i
			}
		}
		clean := true
		for i, p := range ps {
			if i != last && p.done >= ps[last].sent {
				clean = false
				break
			}
		}
		if clean {
			out[idx] = ps[last].val
		}
	}
	return out
}
