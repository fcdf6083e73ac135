// Package node assembles one daemon of a deployment: the process
// inventory of the paper's Figure 2 (version manager, provider
// manager, data and metadata providers, namespace manager), the repair
// plane, and the baseline HDFS namenode/datanodes. Start builds the
// role's service, recovers its state from the write-ahead log, starts
// its background loops (janitor, liveness expiry, heartbeats, repair
// scans) and serves it on a listener the caller supplies.
//
// Every deployment is assembled here: cmd/blobseerd runs one node per
// process over TCP, and the cluster package runs a whole deployment of
// nodes in one process (in-process or loopback TCP transport). Tests,
// tools and benchmarks therefore exercise the wiring production runs.
// The caller owns the transport: the listener, the rpc.Pool the node
// uses to reach its peers, and the tracer recording server spans.
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/hdfs"
	"blobseer/internal/mdtree"
	"blobseer/internal/metrics"
	"blobseer/internal/namespace"
	"blobseer/internal/placement"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/trace"
	"blobseer/internal/vmanager"
	"blobseer/internal/wal"
)

// Role names a daemon kind.
type Role string

// The daemon roles.
const (
	Meta      Role = "meta"      // metadata DHT provider
	VManager  Role = "vmanager"  // version manager (one shard of it)
	PManager  Role = "pmanager"  // provider manager
	Namespace Role = "namespace" // BSFS namespace manager
	Provider  Role = "provider"  // data provider
	Repair    Role = "repair"    // repair engine (serves no RPC)
	Namenode  Role = "namenode"  // HDFS baseline namenode
	Datanode  Role = "datanode"  // HDFS baseline datanode
)

// Config describes one daemon. Fields a role does not use are ignored.
type Config struct {
	Role Role

	// Transport, owned by the caller. Listener carries the role's RPC
	// service (every role but Repair); Pool reaches every peer; Tracer
	// records server spans (nil records none).
	Listener net.Listener
	Pool     *rpc.Pool
	Tracer   *trace.Tracer

	// Peers.
	MetaAddrs       []string // metadata providers (vmanager abort repair; repair). Empty: vmanager runs without repair
	MetaReplication int      // DHT replication level (0 = 1)
	MetaCacheSize   int      // vmanager/repair immutable-node cache entries (<0 default, 0 off)
	VMAddrs         []string // version-manager shards in shard order (namespace, repair)
	PMAddr          string   // provider manager (provider registers and heartbeats; repair)
	NNAddr          string   // namenode (datanode registers)
	Host            string   // physical host label (provider, datanode)

	// StoreURL selects the block store of a provider, datanode or
	// metadata provider (see store.Open; "" = mem://). The node owns
	// the store and closes it on Stop.
	StoreURL string

	Strategy  placement.Strategy // placement (pmanager, namenode); nil = round robin
	BlockSize int64              // namenode chunk size

	Shard        vmanager.ShardInfo // vmanager shard identity (zero = unsharded)
	WriteTimeout time.Duration      // vmanager janitor abort threshold (0 disables)

	// DataDir journals the vmanager and namespace to a write-ahead log
	// under DataDir/<role> and recovers their state from it at Start
	// ("" = volatile). WALSyncInterval batches fsyncs at that interval
	// (0 syncs every record; client-acked publishes always sync).
	DataDir         string
	WALSyncInterval time.Duration

	HeartbeatInterval time.Duration // provider heartbeats to the pmanager (0 disables)
	ExpireAfter       time.Duration // pmanager expires providers silent this long (0 disables)
	RepairInterval    time.Duration // repair scan period (0 = on demand via RepairEng.RunOnce)
	RepairConcurrency int           // parallel block repairs (0 = default)
}

// Node is a running daemon. Exactly one of the service fields is set,
// matching Cfg.Role (Provider serves datanodes too).
type Node struct {
	Cfg  Config
	Addr string // bound RPC address ("" for Repair)

	VM        *vmanager.Service
	PM        *pmanager.Service
	NS        *namespace.Service
	Provider  *provider.Service
	Meta      *dht.MetaService
	NameNode  *hdfs.Service
	RepairEng *repair.Engine

	reg    *metrics.Registry
	srv    *rpc.Server
	st     store.Store
	hbStop chan struct{}  // closed by Kill to end the heartbeat loop
	hbDone sync.WaitGroup // the heartbeat loop, waited for by Kill

	killOnce  sync.Once
	closeOnce sync.Once
}

// Start assembles and serves the daemon cfg describes. For a provider
// or datanode it returns once the manager has accepted the node's
// registration, so the node is allocatable on return.
func Start(cfg Config) (*Node, error) {
	if cfg.Pool == nil {
		return nil, errors.New("node: Config.Pool is required")
	}
	if cfg.Listener == nil && cfg.Role != Repair {
		return nil, fmt.Errorf("node: %s needs a Listener", cfg.Role)
	}
	if cfg.MetaReplication <= 0 {
		cfg.MetaReplication = 1
	}
	if cfg.Strategy == nil {
		cfg.Strategy = placement.NewRoundRobin()
	}
	n := &Node{Cfg: cfg}
	if cfg.Listener != nil {
		n.Addr = cfg.Listener.Addr().String()
	}
	mux, opName, err := n.build()
	if err != nil {
		n.release()
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
		return nil, fmt.Errorf("node: start %s: %w", cfg.Role, err)
	}
	if mux != nil {
		n.srv = rpc.NewServer(mux)
		n.srv.SetTrace(cfg.Tracer, opName)
		go n.srv.Serve(cfg.Listener)
	}
	if err := n.announce(); err != nil {
		n.Stop()
		return nil, fmt.Errorf("node: start %s: %w", cfg.Role, err)
	}
	return n, nil
}

// build constructs the role's service and starts its background loops.
func (n *Node) build() (*rpc.Mux, func(uint16) string, error) {
	cfg := n.Cfg
	switch cfg.Role {
	case Meta:
		st, err := n.openStore()
		if err != nil {
			return nil, nil, err
		}
		n.Meta = dht.NewMetaService(st)
		n.reg = n.Meta.Metrics()
		return n.Meta.Mux(), dht.MethodName, nil

	case VManager:
		var repairer vmanager.Repairer
		if len(cfg.MetaAddrs) > 0 {
			repairer = vmanager.MetadataRepairer(n.metaStore())
		}
		var state *vmanager.State
		if cfg.DataDir == "" {
			state = vmanager.NewShardState(repairer, cfg.Shard)
		} else {
			// One WAL per shard: kill/restart/recovery never crosses
			// shard boundaries.
			dir := filepath.Join(cfg.DataDir, "vmanager")
			if cfg.Shard.Count > 1 {
				dir = filepath.Join(dir, fmt.Sprintf("shard-%d", cfg.Shard.Index))
			}
			l, err := n.openWAL(dir)
			if err != nil {
				return nil, nil, err
			}
			if state, err = vmanager.RecoverShard(l, repairer, cfg.Shard); err != nil {
				l.Close()
				return nil, nil, err
			}
		}
		n.VM = vmanager.NewService(state)
		if cfg.WriteTimeout > 0 {
			n.VM.StartJanitor(cfg.WriteTimeout, cfg.WriteTimeout/2)
		}
		n.reg = n.VM.Metrics()
		return n.VM.Mux(), vmanager.MethodName, nil

	case PManager:
		n.PM = pmanager.NewService(pmanager.NewState(cfg.Strategy))
		if cfg.ExpireAfter > 0 {
			n.PM.StartExpiry(cfg.ExpireAfter, cfg.ExpireAfter/2)
		}
		n.reg = n.PM.Metrics()
		return n.PM.Mux(), pmanager.MethodName, nil

	case Namespace:
		if len(cfg.VMAddrs) == 0 {
			return nil, nil, errors.New("VMAddrs is required")
		}
		creator := namespace.VMBlobCreator(core.NewVMClient(cfg.Pool, "", cfg.VMAddrs))
		var state *namespace.State
		if cfg.DataDir == "" {
			state = namespace.NewState(creator)
		} else {
			l, err := n.openWAL(filepath.Join(cfg.DataDir, "namespace"))
			if err != nil {
				return nil, nil, err
			}
			if state, err = namespace.Recover(l, creator); err != nil {
				l.Close()
				return nil, nil, err
			}
		}
		n.NS = namespace.NewService(state)
		n.reg = n.NS.Metrics()
		return n.NS.Mux(), namespace.MethodName, nil

	case Provider, Datanode:
		if cfg.Role == Provider && cfg.PMAddr == "" {
			return nil, nil, errors.New("PMAddr is required")
		}
		if cfg.Role == Datanode && cfg.NNAddr == "" {
			return nil, nil, errors.New("NNAddr is required")
		}
		st, err := n.openStore()
		if err != nil {
			return nil, nil, err
		}
		n.Provider = provider.NewService(st, cfg.Pool)
		n.reg = n.Provider.Metrics()
		return n.Provider.Mux(), provider.MethodName, nil

	case Namenode:
		n.NameNode = hdfs.NewService(hdfs.NewNamenode(cfg.BlockSize, cfg.Strategy))
		return n.NameNode.Mux(), nil, nil

	case Repair:
		if len(cfg.VMAddrs) == 0 || cfg.PMAddr == "" || len(cfg.MetaAddrs) == 0 {
			return nil, nil, errors.New("VMAddrs, PMAddr and MetaAddrs are required")
		}
		dhtClient := n.dhtClient()
		n.RepairEng = repair.New(repair.Config{
			VM:          core.NewVMClient(cfg.Pool, "", cfg.VMAddrs),
			PM:          pmanager.NewClient(cfg.Pool, cfg.PMAddr),
			Prov:        provider.NewClient(cfg.Pool),
			Meta:        mdtree.MaybeCache(mdtree.NewDHTStore(dhtClient), cfg.MetaCacheSize),
			Overlay:     repair.NewOverlay(dhtClient),
			Concurrency: cfg.RepairConcurrency,
		})
		n.RepairEng.Start(cfg.RepairInterval)
		n.reg = n.RepairEng.Metrics()
		return nil, nil, nil
	}
	return nil, nil, fmt.Errorf("unknown role %q", cfg.Role)
}

func (n *Node) dhtClient() *dht.Client {
	ring := dht.NewRing(n.Cfg.MetaAddrs, dht.DefaultVnodes)
	return dht.NewClient(ring, n.Cfg.Pool, n.Cfg.MetaReplication)
}

func (n *Node) metaStore() mdtree.Store {
	return mdtree.MaybeCache(mdtree.NewDHTStore(n.dhtClient()), n.Cfg.MetaCacheSize)
}

func (n *Node) openStore() (store.Store, error) {
	u := n.Cfg.StoreURL
	if u == "" {
		u = "mem://"
	}
	st, err := store.Open(u)
	n.st = st
	return st, err
}

func (n *Node) openWAL(dir string) (*wal.Log, error) {
	opts := wal.Options{Policy: wal.SyncAlways}
	if n.Cfg.WALSyncInterval > 0 {
		opts = wal.Options{Policy: wal.SyncInterval, Interval: n.Cfg.WALSyncInterval}
	}
	return wal.Open(dir, opts)
}

// announce registers a storage daemon with its manager, so clients can
// be pointed at the manager alone, and starts a provider's heartbeats.
func (n *Node) announce() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	switch n.Cfg.Role {
	case Provider:
		pm := pmanager.NewClient(n.Cfg.Pool, n.Cfg.PMAddr)
		if err := pm.Register(ctx, n.Addr, n.Cfg.Host); err != nil {
			return fmt.Errorf("register with provider manager %s: %w", n.Cfg.PMAddr, err)
		}
		if n.Cfg.HeartbeatInterval > 0 {
			n.hbStop = make(chan struct{})
			n.hbDone.Add(1)
			go n.heartbeat(pm, n.hbStop)
		}
	case Datanode:
		if err := hdfs.NewNNClient(n.Cfg.Pool, n.Cfg.NNAddr).Register(ctx, n.Addr, n.Cfg.Host); err != nil {
			return fmt.Errorf("register with namenode %s: %w", n.Cfg.NNAddr, err)
		}
	}
	return nil
}

// heartbeat is the provider's liveness loop: every interval it reports
// its live store statistics to the provider manager, so the manager's
// listings track what the provider holds and a provider silent for the
// expiry window leaves the allocation pool. A manager that restarted
// and lost its membership answers "unknown", and the provider
// re-registers.
func (n *Node) heartbeat(pm *pmanager.Client, stop chan struct{}) {
	defer n.hbDone.Done()
	every := n.Cfg.HeartbeatInterval
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), every)
		known, err := pm.Heartbeat(ctx, n.Addr, n.Provider.Store().Stats())
		switch {
		case err != nil:
			log.Printf("node: heartbeat to %s: %v", n.Cfg.PMAddr, err)
		case !known:
			if err := pm.Register(ctx, n.Addr, n.Cfg.Host); err != nil {
				log.Printf("node: re-register with %s: %v", n.Cfg.PMAddr, err)
			}
		}
		cancel()
	}
}

// Metrics returns the role's metrics registry (nil for a namenode).
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Kill crashes the node: background loops stop, connections are cut,
// in-flight handlers drain, and the write-ahead log is released so a
// restart can reopen it. Every client-acknowledged publish was synced
// before its ack, so closing the log is the closest in-process
// equivalent of a crash. The block store stays open: a crashed
// machine's disk survives, and a later repair must not depend on it.
func (n *Node) Kill() {
	n.killOnce.Do(func() {
		if n.hbStop != nil {
			close(n.hbStop)
			n.hbDone.Wait()
		}
		if n.RepairEng != nil {
			n.RepairEng.Stop()
		}
		if n.PM != nil {
			n.PM.StopExpiry()
		}
		if n.VM != nil {
			n.VM.StopJanitor()
		}
		if n.srv != nil {
			// Cut the conns first so no response reaches a client, then
			// wake parked WaitPublished handlers (they would stall the
			// drain for their full timeout), then drain.
			n.srv.Sever()
			if n.VM != nil {
				n.VM.State().ReleaseWaiters()
			}
			n.srv.Close()
			n.Cfg.Listener.Close()
		}
		// The log closes last: a mutation that reaches the state after
		// this fails instead of being acknowledged unjournaled.
		if n.VM != nil {
			if err := n.VM.State().CloseWAL(); err != nil {
				log.Printf("node: vmanager: close WAL: %v", err)
			}
		}
		if n.NS != nil {
			if err := n.NS.State().CloseWAL(); err != nil {
				log.Printf("node: namespace: close WAL: %v", err)
			}
		}
	})
}

// Stop shuts the node down gracefully: everything Kill does, then the
// block store is closed (stopping tiered policy loops, releasing
// connection pools and files). Stop after Kill finishes the shutdown.
func (n *Node) Stop() {
	n.Kill()
	n.release()
}

func (n *Node) release() {
	n.closeOnce.Do(func() {
		if n.st != nil {
			n.st.Close()
		}
	})
}

// ServeMetrics serves a metrics exporter at /metrics (and /) and a
// trace exporter at /trace on addr ("127.0.0.1:0" picks a port). It
// returns the bound address and the listener's stop function.
func ServeMetrics(addr string, exp *metrics.Exporter, traces *trace.Exporter) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", exp)
	mux.Handle("/", exp)
	mux.Handle("/trace", traces)
	return metrics.ServeHandler(addr, mux)
}
