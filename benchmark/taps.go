package main

import (
	"context"
	"net"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/mdtree"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
)

// The taps below observe one layer each from the outside: they wrap a
// layer's public interface, forward every call unchanged and count or
// time it. None of them adds anything inside the program.

// samples collects latency observations in milliseconds.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

// take returns the observations so far and starts a fresh set.
func (s *samples) take() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ms
	s.ms = nil
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no observations). It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// connTap is the dialer of the benchmark's own rpc.Pool: it dials
// through rpc.TCPDialer and counts the connections it opens and the
// bytes that cross them in each direction.
type connTap struct {
	dials, rx, tx atomic.Int64
}

func (t *connTap) dial(addr string) (net.Conn, error) {
	c, err := rpc.TCPDialer(addr)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	return &countedConn{Conn: c, tap: t}, nil
}

type countedConn struct {
	net.Conn
	tap *connTap
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.rx.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tap.tx.Add(int64(n))
	return n, err
}

// metaTap wraps the client's metadata store (the DHT-backed
// mdtree.DHTStore, below the client's node cache, so it sees only the
// lookups that reach the metadata providers). It forwards every
// optional capability the client checks for: mdtree.BatchStore,
// mdtree.Deleter and Fallbacks.
type metaTap struct {
	inner *mdtree.DHTStore

	getBatches, nodesFetched atomic.Int64
	putBatches, nodesPut     atomic.Int64
	getLat, putLat           samples
}

var (
	_ mdtree.BatchStore = (*metaTap)(nil)
	_ mdtree.Deleter    = (*metaTap)(nil)
)

func (m *metaTap) Put(ctx context.Context, n mdtree.Node) error {
	t0 := time.Now()
	err := m.inner.Put(ctx, n)
	m.putLat.add(time.Since(t0))
	m.putBatches.Add(1)
	m.nodesPut.Add(1)
	return err
}

func (m *metaTap) Get(ctx context.Context, id mdtree.NodeID) (mdtree.Node, error) {
	t0 := time.Now()
	n, err := m.inner.Get(ctx, id)
	m.getLat.add(time.Since(t0))
	m.getBatches.Add(1)
	m.nodesFetched.Add(1)
	return n, err
}

func (m *metaTap) PutBatch(ctx context.Context, nodes []mdtree.Node) error {
	t0 := time.Now()
	err := m.inner.PutBatch(ctx, nodes)
	m.putLat.add(time.Since(t0))
	m.putBatches.Add(1)
	m.nodesPut.Add(int64(len(nodes)))
	return err
}

func (m *metaTap) GetBatch(ctx context.Context, ids []mdtree.NodeID) (map[mdtree.NodeID]mdtree.Node, error) {
	t0 := time.Now()
	out, err := m.inner.GetBatch(ctx, ids)
	m.getLat.add(time.Since(t0))
	m.getBatches.Add(1)
	m.nodesFetched.Add(int64(len(ids)))
	return out, err
}

func (m *metaTap) Delete(ctx context.Context, id mdtree.NodeID) error {
	return m.inner.Delete(ctx, id)
}

func (m *metaTap) Fallbacks() int64 { return m.inner.Fallbacks() }

// blockTap observes every data provider's block store. The stores are
// opened by the cluster through the "benchmem" scheme registered in
// registerBlockTap, so one tap sees the whole fleet. Timing is off
// until a traced phase switches it on; off, each call costs one atomic
// load on top of the in-memory store.
type blockTap struct {
	timed              atomic.Bool
	getBytes, putBytes atomic.Int64
	getLat, putLat     samples
}

// blockScheme is the store URL scheme the benchmark's providers use.
const blockScheme = "benchmem"

func registerBlockTap(t *blockTap) {
	store.Register(blockScheme, func(_ *url.URL) (store.Store, error) {
		inner, err := store.Open("mem://")
		if err != nil {
			return nil, err
		}
		return &tapStore{Store: inner, tap: t}, nil
	})
}

// tapStore forwards the full store.Store interface through the
// embedded backend and times the data-moving calls.
type tapStore struct {
	store.Store
	tap *blockTap
}

func (s *tapStore) Put(key string, val []byte) error {
	if !s.tap.timed.Load() {
		return s.Store.Put(key, val)
	}
	t0 := time.Now()
	err := s.Store.Put(key, val)
	s.tap.putLat.add(time.Since(t0))
	if err == nil {
		s.tap.putBytes.Add(int64(len(val)))
	}
	return err
}

func (s *tapStore) PutWriter(key string) (store.BlockWriter, error) {
	w, err := s.Store.PutWriter(key)
	if err != nil || !s.tap.timed.Load() {
		return w, err
	}
	return &tapWriter{BlockWriter: w, tap: s.tap}, nil
}

func (s *tapStore) Get(key string) ([]byte, error) {
	if !s.tap.timed.Load() {
		return s.Store.Get(key)
	}
	t0 := time.Now()
	val, err := s.Store.Get(key)
	s.tap.getLat.add(time.Since(t0))
	s.tap.getBytes.Add(int64(len(val)))
	return val, err
}

func (s *tapStore) GetRange(key string, off, length int64) ([]byte, error) {
	if !s.tap.timed.Load() {
		return s.Store.GetRange(key, off, length)
	}
	t0 := time.Now()
	val, err := s.Store.GetRange(key, off, length)
	s.tap.getLat.add(time.Since(t0))
	s.tap.getBytes.Add(int64(len(val)))
	return val, err
}

// tapWriter times a streamed put: the time spent inside the store's
// WriteAt calls and its Commit, recorded as one put when the value
// becomes visible.
type tapWriter struct {
	store.BlockWriter
	tap         *blockTap
	busy, bytes atomic.Int64
}

func (w *tapWriter) WriteAt(p []byte, off int64) error {
	t0 := time.Now()
	err := w.BlockWriter.WriteAt(p, off)
	w.busy.Add(int64(time.Since(t0)))
	if err == nil {
		w.bytes.Add(int64(len(p)))
	}
	return err
}

func (w *tapWriter) Commit() error {
	t0 := time.Now()
	err := w.BlockWriter.Commit()
	if err == nil {
		w.tap.putLat.add(time.Duration(w.busy.Load()) + time.Since(t0))
		w.tap.putBytes.Add(w.bytes.Load())
	}
	return err
}
