package client

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"adcache"
	"adcache/internal/cluster"
	"adcache/internal/server"
)

// newNode opens a DB and serves it over real HTTP, optionally cluster-
// configured with view.
func newNode(t *testing.T, view *cluster.NodeView) (*httptest.Server, *adcache.DB, string) {
	t.Helper()
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	opts := []server.Option{}
	if view != nil {
		opts = append(opts, server.WithCluster(view))
	}
	srv := httptest.NewServer(server.New(db, opts...))
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, db, strings.TrimPrefix(srv.URL, "http://")
}

func TestSingleNodeMode(t *testing.T) {
	_, _, addr := newNode(t, nil)
	c, err := New([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Epoch() != 0 {
		t.Fatalf("single-node epoch = %d", c.Epoch())
	}
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, err := c.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("missing Get = %v %v", ok, err)
	}
	if err := c.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get([]byte("k")); ok {
		t.Fatal("deleted key still visible")
	}
}

// twoNodeCluster stands up two cluster-configured nodes sharing a 4-slot
// map and returns their views and DBs keyed by node ID.
func twoNodeCluster(t *testing.T) (addrs map[string]string, views map[string]*cluster.NodeView, dbs map[string]*adcache.DB, m *cluster.ShardMap) {
	t.Helper()
	addrs = map[string]string{}
	views = map[string]*cluster.NodeView{}
	dbs = map[string]*adcache.DB{}
	// Addresses aren't known until the servers exist, and the servers
	// need views. Build with placeholder addrs — the client only uses
	// addrs from the map, so patch them in before any client connects.
	seed := &cluster.ShardMap{
		Epoch:  1,
		Shards: 4,
		Nodes:  []cluster.Node{{ID: "a", Addr: "pending"}, {ID: "b", Addr: "pending"}},
		Owner:  []string{"a", "a", "b", "b"},
	}
	for _, id := range []string{"a", "b"} {
		view, err := cluster.NewNodeView(id, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, db, addr := newNode(t, view)
		addrs[id] = addr
		views[id] = view
		dbs[id] = db
	}
	m = seed.Clone()
	m.Epoch = 2
	m.Nodes = []cluster.Node{{ID: "a", Addr: addrs["a"]}, {ID: "b", Addr: addrs["b"]}}
	for _, v := range views {
		if err := v.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	return addrs, views, dbs, m
}

// keysForSlots returns one key per requested slot.
func keyForSlot(t *testing.T, slot, shards int) []byte {
	t.Helper()
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if cluster.ShardOf(k, shards) == slot {
			return k
		}
	}
}

func TestClusterRouting(t *testing.T) {
	addrs, _, dbs, _ := twoNodeCluster(t)
	c, err := New([]string{addrs["a"]})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Epoch() != 2 {
		t.Fatalf("bootstrap epoch = %d", c.Epoch())
	}

	kA := keyForSlot(t, 0, 4) // owned by a
	kB := keyForSlot(t, 3, 4) // owned by b
	if err := c.Put(kA, []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(kB, []byte("vb")); err != nil {
		t.Fatal(err)
	}
	// Each write landed on the owning node's local store.
	if _, ok, _ := dbs["a"].Get(kA); !ok {
		t.Fatal("kA not on node a")
	}
	if _, ok, _ := dbs["b"].Get(kB); !ok {
		t.Fatal("kB not on node b")
	}
	if _, ok, _ := dbs["a"].Get(kB); ok {
		t.Fatal("kB leaked onto node a")
	}
	v, ok, err := c.Get(kB)
	if err != nil || !ok || string(v) != "vb" {
		t.Fatalf("Get kB = %q %v %v", v, ok, err)
	}
	if st := c.Stats(); st.WrongShardRetries != 0 {
		t.Fatalf("unexpected retries: %+v", st)
	}
}

func TestClusterBatchGroupsPerNode(t *testing.T) {
	addrs, _, dbs, _ := twoNodeCluster(t)
	c, err := New([]string{addrs["b"]})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var ops []Op
	var keys [][]byte
	for slot := 0; slot < 4; slot++ {
		k := keyForSlot(t, slot, 4)
		keys = append(keys, k)
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: []byte(fmt.Sprintf("v%d", slot))})
	}
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	for slot, k := range keys {
		v, ok, err := c.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", slot) {
			t.Fatalf("slot %d: %q %v %v", slot, v, ok, err)
		}
	}
	// Slots 0,1 on a; 2,3 on b — strictly partitioned.
	for slot, k := range keys {
		owner := "a"
		if slot >= 2 {
			owner = "b"
		}
		if _, ok, _ := dbs[owner].Get(k); !ok {
			t.Fatalf("slot %d missing on node %s", slot, owner)
		}
	}
	// Batched deletes ride the same path.
	if err := c.Batch([]Op{{Kind: OpDelete, Key: keys[0]}, {Kind: OpDelete, Key: keys[3]}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(keys[0]); ok {
		t.Fatal("deleted key visible")
	}
}

func TestClusterScanMerges(t *testing.T) {
	addrs, _, _, _ := twoNodeCluster(t)
	c, err := New([]string{addrs["a"]})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var want []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("scan%04d", i)
		if err := c.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	kvs, err := c.Scan([]byte("scan"), []byte("scao"), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 20 {
		t.Fatalf("scan returned %d, want 20", len(kvs))
	}
	for i, kv := range kvs {
		if string(kv.Key) != want[i] {
			t.Fatalf("kvs[%d] = %q, want %q", i, kv.Key, want[i])
		}
		if i > 0 && bytes.Compare(kvs[i-1].Key, kv.Key) >= 0 {
			t.Fatal("merged scan out of order")
		}
	}
	// Limit respected across the merge.
	kvs, err = c.Scan([]byte("scan"), nil, 7)
	if err != nil || len(kvs) != 7 {
		t.Fatalf("limited scan = %d %v", len(kvs), err)
	}
}

// TestWrongShardRefresh: a shard moves behind the client's back; the next
// request gets WRONG_SHARD, refreshes, retries, and succeeds invisibly.
func TestWrongShardRefresh(t *testing.T) {
	addrs, views, dbs, m := twoNodeCluster(t)
	c, err := New([]string{addrs["a"]})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	k := keyForSlot(t, 0, 4) // on node a under epoch 2
	if err := c.Put(k, []byte("before")); err != nil {
		t.Fatal(err)
	}

	// Move slot 0 a→b the way the manager would: fence a, copy, publish b.
	next, err := m.WithMove(0, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := views["a"].Apply(next); err != nil {
		t.Fatal(err)
	}
	v, ok, err := dbs["a"].Get(k)
	if err != nil || !ok {
		t.Fatal("source data missing")
	}
	if err := dbs["b"].Put(k, v); err != nil {
		t.Fatal(err)
	}
	if err := views["b"].Apply(next); err != nil {
		t.Fatal(err)
	}

	// Client still holds epoch 2 and routes to a; the fence bounces it.
	got, ok, err := c.Get(k)
	if err != nil || !ok || string(got) != "before" {
		t.Fatalf("Get after move = %q %v %v", got, ok, err)
	}
	st := c.Stats()
	if st.WrongShardRetries == 0 {
		t.Fatal("expected at least one WRONG_SHARD retry")
	}
	if st.Epoch != 3 {
		t.Fatalf("client epoch = %d, want 3", st.Epoch)
	}
	// Writes now land on b.
	if err := c.Put(k, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := dbs["b"].Get(k); !ok || string(v) != "after" {
		t.Fatalf("post-move write on b = %q %v", v, ok)
	}
}

// TestBatchRetriesOnlyFailedGroups: when one group of a mixed batch is
// rejected with WRONG_SHARD, only that group's ops are re-routed and
// re-sent on retry — the group another node has already acked must not
// be applied a second time.
func TestBatchRetriesOnlyFailedGroups(t *testing.T) {
	addrs, views, dbs, m := twoNodeCluster(t)
	c, err := New([]string{addrs["a"]})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	kA := keyForSlot(t, 0, 4) // on node a
	kB := keyForSlot(t, 3, 4) // on node b under the client's (stale) epoch 2

	// Move slot 3 b→a behind the client's back: fence b, publish a.
	next, err := m.WithMove(3, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := views["b"].Apply(next); err != nil {
		t.Fatal(err)
	}
	if err := views["a"].Apply(next); err != nil {
		t.Fatal(err)
	}

	// The a-group acks on attempt one; the b-group bounces WRONG_SHARD,
	// refreshes, and re-routes to a on attempt two.
	if err := c.Batch([]Op{
		{Kind: OpPut, Key: kA, Value: []byte("va")},
		{Kind: OpPut, Key: kB, Value: []byte("vb")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := dbs["a"].Get(kA); !ok {
		t.Fatal("kA missing on node a")
	}
	if v, ok, _ := dbs["a"].Get(kB); !ok || string(v) != "vb" {
		t.Fatalf("kB on new owner = %q %v", v, ok)
	}
	if st := c.Stats(); st.WrongShardRetries == 0 {
		t.Fatal("expected a WRONG_SHARD batch retry")
	}
	// The acked group was not re-sent: node a observed exactly one write
	// on kA's slot. (A client re-sending the whole batch would re-apply
	// kA on the retry and double this count.)
	h := dbs["a"].Registry().Histogram(`http_shard_write_nanos{shard="0"}`, "")
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("slot-0 writes on node a = %d, want exactly 1 (acked group re-sent?)", got)
	}
}

// TestBatchAckNotesNewerEpoch: a batch's 2xx answer carrying a newer
// X-Adcache-Epoch makes the client refresh its map, exactly as a keyed
// request's answer does.
func TestBatchAckNotesNewerEpoch(t *testing.T) {
	addrs, views, _, m := twoNodeCluster(t)
	c, err := New([]string{addrs["a"]})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Publish epoch 3 (slot 3 b→a) behind the client's back; slot 0 stays
	// on a, so the batch below acks without any WRONG_SHARD.
	next, err := m.WithMove(3, "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if err := v.Apply(next); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats().MapRefreshes
	if err := c.Batch([]Op{{Kind: OpPut, Key: keyForSlot(t, 0, 4), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.MapRefreshes != before+1 || st.WrongShardRetries != 0 {
		t.Fatalf("map refreshes %d -> %d (wrong-shard retries %d), want one refresh from the ack",
			before, st.MapRefreshes, st.WrongShardRetries)
	}
	if st.Epoch != 3 {
		t.Fatalf("client epoch = %d, want 3", st.Epoch)
	}
}

// TestBinaryClient: WithBinary changes only the encoding. Batches and
// scans behave identically to the JSON client — same routing and
// per-node partitioning — and raw (non-UTF-8) values survive the round
// trip byte-exact, which JSON cannot promise.
func TestBinaryClient(t *testing.T) {
	addrs, _, dbs, _ := twoNodeCluster(t)
	c, err := New([]string{addrs["a"]}, WithBinary())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	raw := []byte{0x00, 0x01, 0xfe, 0xff, '"', '\\', '\n'}
	var ops []Op
	var keys [][]byte
	for slot := 0; slot < 4; slot++ {
		k := keyForSlot(t, slot, 4)
		keys = append(keys, k)
		ops = append(ops, Op{Kind: OpPut, Key: k, Value: []byte(fmt.Sprintf("v%d", slot))})
	}
	ops = append(ops,
		Op{Kind: OpPut, Key: []byte("bin/raw"), Value: raw},
		Op{Kind: OpPut, Key: []byte("bin/gone"), Value: []byte("x")},
		Op{Kind: OpDelete, Key: []byte("bin/gone")})
	if err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}

	// Same partitioning as the JSON batch test: slots 0,1 on a; 2,3 on b.
	for slot, k := range keys {
		owner := "a"
		if slot >= 2 {
			owner = "b"
		}
		if v, ok, _ := dbs[owner].Get(k); !ok || string(v) != fmt.Sprintf("v%d", slot) {
			t.Fatalf("slot %d on node %s = %q %v", slot, owner, v, ok)
		}
	}
	if _, ok, _ := c.Get([]byte("bin/gone")); ok {
		t.Fatal("deleted key visible")
	}
	if v, ok, err := c.Get([]byte("bin/raw")); err != nil || !ok || !bytes.Equal(v, raw) {
		t.Fatalf("raw Get = %q %v %v, want %q", v, ok, err, raw)
	}

	// The binary merged scan returns global key order and exact bytes.
	kvs, err := c.Scan([]byte("bin/"), []byte("bin0"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 1 || string(kvs[0].Key) != "bin/raw" || !bytes.Equal(kvs[0].Value, raw) {
		t.Fatalf("binary scan = %+v, want the one raw entry", kvs)
	}
	all, err := c.Scan([]byte("key"), nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(keys) {
		t.Fatalf("scan len = %d, want %d", len(all), len(keys))
	}
	for i := 1; i < len(all); i++ {
		if bytes.Compare(all[i-1].Key, all[i].Key) >= 0 {
			t.Fatal("binary merged scan out of order")
		}
	}
	// Limit respected mid-merge.
	if few, err := c.Scan([]byte("key"), nil, 2); err != nil || len(few) != 2 {
		t.Fatalf("limited binary scan = %d %v", len(few), err)
	}

	// A JSON client over the same cluster agrees on the UTF-8-clean keys.
	jc, err := New([]string{addrs["b"]})
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	jall, err := jc.Scan([]byte("key"), nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(jall) != len(all) {
		t.Fatalf("JSON client scan len = %d, binary %d", len(jall), len(all))
	}
	for i := range all {
		if !bytes.Equal(jall[i].Key, all[i].Key) || !bytes.Equal(jall[i].Value, all[i].Value) {
			t.Fatalf("entry %d: json %q=%q vs binary %q=%q",
				i, jall[i].Key, jall[i].Value, all[i].Key, all[i].Value)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, err := New([]string{"127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable seed accepted")
	}
}
