package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"adcache"
	"adcache/internal/api"
	"adcache/internal/api/wire"
)

// postBatch posts a batch body with an explicit content type.
func postBatch(t *testing.T, base string, contentType string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.String()
}

// scanJSON fetches a scan as the default JSON array.
func scanJSON(t *testing.T, base, start string, n int) []api.ScanEntry {
	t.Helper()
	resp, body := do(t, "GET", fmt.Sprintf("%s/v1/scan?start=%s&n=%d", base, url.QueryEscape(start), n), "")
	if resp.StatusCode != 200 {
		t.Fatalf("scan = %d %q", resp.StatusCode, body)
	}
	var out []api.ScanEntry
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("scan body %q: %v", body, err)
	}
	return out
}

// scanBinary fetches a scan as a binary entry stream and decodes it.
func scanBinary(t *testing.T, base, start string, n int) []api.ScanEntry {
	t.Helper()
	req, err := http.NewRequest("GET", fmt.Sprintf("%s/v1/scan?start=%s&n=%d", base, url.QueryEscape(start), n), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("binary scan = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, wire.ContentType)
	}
	var d wire.StreamDecoder
	d.Reset(resp.Body)
	var out []api.ScanEntry
	for {
		k, v, err := d.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		out = append(out, api.ScanEntry{Key: string(k), Value: string(v)})
	}
}

// TestBatchBinaryEquivalence: the same op sequence posted as JSON and as
// the binary framing produces identical engine state and identical scan
// results in both response formats, with writes applied inline and
// through the coalescer.
func TestBatchBinaryEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		newServer func(*testing.T) (*httptest.Server, *adcache.DB)
	}{
		{"inline", testServer},
		{"coalesced", coalServer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvJSON, dbJSON := tc.newServer(t)
			srvBin, dbBin := tc.newServer(t)

			type op struct {
				op, key, value string
			}
			ops := []op{
				{"put", "eq/a", "1"},
				{"put", "eq/b", "two"},
				{"put", "eq/esc", "quote\" back\\slash \n tab\t unicode→"},
				{"put", "eq/gone", "x"},
				{"delete", "eq/gone", ""},
				{"put", "eq/b", "two-rewritten"},
			}

			var jsonOps []api.BatchOp
			bin := wire.AppendBatchHeader(nil, len(ops))
			for _, o := range ops {
				jsonOps = append(jsonOps, api.BatchOp{Op: o.op, Key: o.key, Value: o.value})
				if o.op == "put" {
					bin = wire.AppendPut(bin, []byte(o.key), []byte(o.value))
				} else {
					bin = wire.AppendDelete(bin, []byte(o.key))
				}
			}
			jb, _ := json.Marshal(jsonOps)

			if st, body := postBatch(t, srvJSON.URL, "application/json", jb); st != 204 {
				t.Fatalf("JSON batch = %d %q", st, body)
			}
			if st, body := postBatch(t, srvBin.URL, wire.ContentType, bin); st != 204 {
				t.Fatalf("binary batch = %d %q", st, body)
			}

			for name, db := range map[string]*adcache.DB{"json": dbJSON, "bin": dbBin} {
				if _, ok, _ := db.Get([]byte("eq/gone")); ok {
					t.Fatalf("%s: deleted key still present", name)
				}
				if v, _, _ := db.Get([]byte("eq/b")); string(v) != "two-rewritten" {
					t.Fatalf("%s: eq/b = %q", name, v)
				}
			}

			// All four scan views (2 servers × 2 formats) must agree.
			want := scanJSON(t, srvJSON.URL, "eq/", 100)
			if len(want) != 3 {
				t.Fatalf("scan len = %d, want 3: %v", len(want), want)
			}
			for i, got := range [][]api.ScanEntry{
				scanBinary(t, srvJSON.URL, "eq/", 100),
				scanJSON(t, srvBin.URL, "eq/", 100),
				scanBinary(t, srvBin.URL, "eq/", 100),
			} {
				if len(got) != len(want) {
					t.Fatalf("view %d: len %d != %d", i, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("view %d entry %d: %+v != %+v", i, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestBinaryScanRawBytes: the binary stream carries value bytes JSON
// cannot (invalid UTF-8 survives verbatim; the JSON view degrades it to
// U+FFFD exactly like encoding/json would).
func TestBinaryScanRawBytes(t *testing.T) {
	srv, db := testServer(t)
	raw := []byte{0x00, 0x01, 0xfe, 0xff, '"', '\\', '\n'}
	if err := db.Put([]byte("raw/k"), raw); err != nil {
		t.Fatal(err)
	}

	bin := scanBinary(t, srv.URL, "raw/", 10)
	if len(bin) != 1 || bin[0].Value != string(raw) {
		t.Fatalf("binary scan = %+v, want raw value %q", bin, raw)
	}

	js := scanJSON(t, srv.URL, "raw/", 10)
	enc, _ := json.Marshal(string(raw)) // encoding/json's lossy view
	var wantJSON string
	json.Unmarshal(enc, &wantJSON)
	if len(js) != 1 || js[0].Value != wantJSON {
		t.Fatalf("JSON scan = %+v, want %q", js, wantJSON)
	}
}

// TestBinaryBatchErrors: malformed binary bodies and per-op violations
// map onto the same typed envelope codes as JSON bodies.
func TestBinaryBatchErrors(t *testing.T) {
	srv, _ := testServer(t)

	cases := []struct {
		name string
		body []byte
		code string
	}{
		{"corrupt", []byte{0x09, 0x01}, api.CodeBadBody},
		{"truncated", wire.AppendBatchHeader(nil, 3), api.CodeBadBody},
		{"empty key", wire.AppendPut(wire.AppendBatchHeader(nil, 1), nil, []byte("v")), api.CodeBadKey},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, body := postBatch(t, srv.URL, wire.ContentType, tc.body)
			if st != 400 {
				t.Fatalf("status = %d %q", st, body)
			}
			if env := envelope(t, body); env.Code != tc.code {
				t.Fatalf("code = %q, want %q", env.Code, tc.code)
			}
		})
	}
}

// TestBinaryBatchWrongShard: ownership is enforced identically for
// binary batches.
func TestBinaryBatchWrongShard(t *testing.T) {
	view, _, theirs := twoNodeView(t)
	srv := clusterServer(t, view)

	bin := wire.AppendPut(wire.AppendBatchHeader(nil, 1), []byte(theirs), []byte("v"))
	st, body := postBatch(t, srv.URL, wire.ContentType, bin)
	if st != http.StatusMisdirectedRequest {
		t.Fatalf("status = %d %q", st, body)
	}
	if env := envelope(t, body); env.Code != api.CodeWrongShard {
		t.Fatalf("code = %q", env.Code)
	}
}

// TestPprofOptIn: /debug/pprof is absent by default and mounted with
// WithPprof.
func TestPprofOptIn(t *testing.T) {
	srv, _ := testServer(t)
	if resp, _ := do(t, "GET", srv.URL+"/debug/pprof/", ""); resp.StatusCode != 404 {
		t.Fatalf("default /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(New(db, WithPprof()))
	t.Cleanup(func() {
		psrv.Close()
		db.Close()
	})
	resp, body := do(t, "GET", psrv.URL+"/debug/pprof/", "")
	if resp.StatusCode != 200 || !bytes.Contains([]byte(body), []byte("goroutine")) {
		t.Fatalf("pprof index = %d %q…", resp.StatusCode, body[:min(len(body), 80)])
	}
}
