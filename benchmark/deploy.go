package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"blobseer/internal/bsfs"
	"blobseer/internal/cluster"
	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/namespace"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/util"
)

// Deployment shape shared by every workload.
const (
	dataProviders = 4
	metaProviders = 2
	blockSize     = util.MB
)

// deployment is one running cluster plus the scratch directory its
// durable control plane writes to (empty when volatile).
type deployment struct {
	bs  *cluster.BlobSeer
	dir string
}

// boot starts a loopback-TCP cluster for workload w. scratch is the
// parent of the WAL directory of a durable workload.
func boot(w *workload, scratch string) (*deployment, error) {
	cfg := cluster.Config{
		DataProviders:    dataProviders,
		MetaProviders:    metaProviders,
		BlockSize:        blockSize,
		Replication:      w.replication,
		MetaCacheSize:    -1, // mdtree.DefaultCacheSize
		UseTCP:           true,
		ReadaheadBlocks:  bsfs.DefaultReadaheadBlocks,
		WriteBehindDepth: bsfs.DefaultWriteBehindDepth,
		StoreURL:         blockScheme + "://",
	}
	d := &deployment{}
	if w.durable {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		cfg.DataDir = dir
		cfg.WALSyncInterval = 0 // fsync every record
	}
	bs, err := cluster.StartBlobSeer(cfg)
	if err != nil {
		d.removeDir()
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	d.bs = bs
	return d, nil
}

// storedBytes sums the bytes every data provider's store holds.
func (d *deployment) storedBytes() int64 {
	var n int64
	for _, addr := range d.bs.ProviderAddrs {
		n += d.bs.ProviderService(addr).Store().Stats().Bytes
	}
	return n
}

func (d *deployment) stop() {
	d.bs.Stop()
	d.removeDir()
}

func (d *deployment) removeDir() {
	if d.dir != "" {
		if err := os.RemoveAll(d.dir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: remove scratch:", err)
		}
	}
}

// stack is the benchmark's own client stack over a deployment: its own
// rpc.Pool dialing through a byte-counting TCP dialer, a core client
// over the DHT metadata store, and a BSFS client with default pipeline
// settings. A timed stack also wraps the metadata store in a metaTap
// and records client spans with the deployment's client tracer.
type stack struct {
	pool *rpc.Pool
	conn *connTap
	meta *metaTap // nil unless timed
	core *core.Client
	fs   *bsfs.FS
}

func newStack(d *deployment, replication int, timed bool) (*stack, error) {
	bs := d.bs
	s := &stack{conn: &connTap{}}
	s.pool = rpc.NewPool(s.conn.dial)
	dhtc := dht.NewClient(dht.NewRing(bs.MetaAddrs, dht.DefaultVnodes), s.pool, bs.Cfg.MetaReplication)
	var meta mdtree.Store = mdtree.NewDHTStore(dhtc)
	cfg := core.Config{
		Pool:          s.pool,
		VMAddrs:       bs.VMAddrs,
		PMAddr:        bs.PMAddr,
		MetaCacheSize: -1,
		Overlay:       repair.NewOverlay(dhtc),
	}
	if timed {
		s.meta = &metaTap{inner: meta.(*mdtree.DHTStore)}
		meta = s.meta
		cfg.Tracer = bs.ClientTracer()
	}
	cfg.MetaStore = meta
	s.core = core.NewClient(cfg)
	fsys, err := bsfs.New(bsfs.Config{
		Core:             s.core,
		NS:               namespace.NewClient(s.pool, bs.NSAddr),
		BlockSize:        blockSize,
		Replication:      replication,
		ReadaheadBlocks:  bsfs.DefaultReadaheadBlocks,
		WriteBehindDepth: bsfs.DefaultWriteBehindDepth,
	})
	if err != nil {
		s.pool.Close()
		return nil, err
	}
	s.fs = fsys
	return s, nil
}

func (s *stack) close() { s.pool.Close() }

// setup boots a deployment, builds a client stack and writes the
// workload's initial files. It returns the time that took.
func setup(ctx context.Context, w *workload, scratch string) (*deployment, *stack, time.Duration, error) {
	t0 := time.Now()
	d, err := boot(w, scratch)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := newStack(d, w.replication, false)
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	if err := w.populate(ctx, st.fs); err != nil {
		st.close()
		d.stop()
		return nil, nil, 0, fmt.Errorf("populate: %w", err)
	}
	return d, st, time.Since(t0), nil
}

// newScratch returns a fresh directory under the checkout's build
// directory for this run's durable state.
func newScratch() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
