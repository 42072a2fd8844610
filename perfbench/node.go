package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"adcache"
	"adcache/client"
	"adcache/internal/lsm"
	"adcache/internal/server"
	"adcache/internal/vfs"
	"adcache/internal/workload"
)

// node is one adcached-equivalent store served over loopback HTTP in this
// process, with the client that drives it.
type node struct {
	dir    string
	db     *adcache.DB
	srv    *http.Server
	served chan error
	hc     *http.Client
	cl     *client.Client

	closeOnce sync.Once
	closeErr  error
}

// preloadBatch is the number of puts per preload write batch.
const preloadBatch = 1000

// openNode builds the store the way cmd/adcached does (OS file system,
// default LSM options, the AdCache strategy with its asynchronous tuner),
// changing only the cache budget; bulk-loads every key of the workload
// with its initial value; flushes and compacts; then serves it on a
// loopback port to a binary-codec client limited to conns connections.
// With a non-nil tracer the file system, handler, transport and dialer
// are wrapped by its recorders; a non-nil wrap wraps the handler too.
func openNode(dir string, sp spec, conns int, tr *tracer, wrap func(http.Handler) http.Handler) (*node, error) {
	var fs vfs.FS = vfs.NewOS()
	if tr != nil {
		fs = timingFS{FS: fs, t: tr}
	}
	lsmOpts := lsm.DefaultOptions(dir)
	db, err := adcache.Open(adcache.Options{
		Dir:        dir,
		FS:         fs,
		CacheBytes: sp.cacheBytes,
		Strategy:   adcache.StrategyAdCache,
		LSM:        &lsmOpts,
	})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	n := &node{dir: dir, db: db}
	if err := n.preload(sp); err != nil {
		n.close()
		return nil, err
	}
	if err := n.serve(conns, tr, wrap); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (n *node) preload(sp spec) error {
	gen := sp.generatorFor(1)
	b := n.db.NewBatch()
	for i := 0; i < sp.keys; i++ {
		b.Put(workload.Key(i), gen.InitialValue(i))
		if b.Len() == preloadBatch || i == sp.keys-1 {
			if err := n.db.Apply(b); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			b = n.db.NewBatch()
		}
	}
	if err := n.db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if err := n.db.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	return nil
}

func (n *node) serve(conns int, tr *tracer, wrap func(http.Handler) http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = server.New(n.db, server.WithDrainState(&server.DrainState{}))
	if wrap != nil {
		h = wrap(h)
	}
	dial := (&net.Dialer{Timeout: 5 * time.Second}).DialContext
	if tr != nil {
		h = tr.middleware(h)
		dial = tr.dial(dial)
	}
	n.srv = &http.Server{Handler: h}
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(ln) }()

	tp := &http.Transport{
		DialContext:         dial,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = tp
	if tr != nil {
		rt = tr.transport(tp)
	}
	n.hc = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	n.cl, err = client.New([]string{ln.Addr().String()}, client.WithBinary(), client.WithHTTPClient(n.hc))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return nil
}

// sstBytes sums the sizes of the table files on disk.
func (n *node) sstBytes() (int64, error) {
	entries, err := os.ReadDir(n.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sst") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// close stops the server and client, closes the store and deletes its
// files. It returns once the serving goroutine has exited; later calls
// return the first call's error.
func (n *node) close() error {
	n.closeOnce.Do(func() { n.closeErr = n.shutdown() })
	return n.closeErr
}

func (n *node) shutdown() error {
	var errs []error
	if n.cl != nil {
		n.cl.Close()
	}
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
			n.srv.Close()
		}
		cancel()
		if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
	}
	if n.hc != nil {
		n.hc.CloseIdleConnections()
	}
	if err := n.db.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close store: %w", err))
	}
	if err := os.RemoveAll(filepath.Clean(n.dir)); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
