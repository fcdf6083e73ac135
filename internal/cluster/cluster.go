// Package cluster runs whole deployments in one process: every daemon
// of Figure 2 (version manager, provider manager, data providers,
// metadata providers, namespace manager) plus the repair plane, over an
// in-process or loopback TCP transport, as the automated Grid'5000
// deployment of Section V-A runs them on physical machines. Each
// daemon is started by internal/node, the same assembly path
// cmd/blobseerd runs in production; this package only picks the
// transport, loops over the roles and aggregates metrics and traces.
// Tests, examples and the CLI tools all start clusters through it.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/metrics"
	"blobseer/internal/namespace"
	"blobseer/internal/node"
	"blobseer/internal/placement"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/trace"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

// Config describes a BlobSeer deployment.
type Config struct {
	DataProviders   int
	MetaProviders   int
	BlockSize       int64
	Replication     int // data replication level
	MetaReplication int // DHT replication level
	MetaCacheSize   int // per-client immutable-node cache entries (<0 default, 0 off)
	Strategy        placement.Strategy
	WriteTimeout    time.Duration // janitor abort threshold; 0 disables
	UseTCP          bool          // listen on loopback TCP instead of inproc
	// BSFS streaming-pipeline tunables (Section IV-B): 0 picks the
	// bsfs defaults, negative disables (fully synchronous block I/O).
	ReadaheadBlocks  int  // reader async prefetch window, in blocks
	WriteBehindDepth int  // writer background commits in flight
	DisableCache     bool // ablation: no block cache, no pipeline

	// Self-healing replication (the repair plane). Heartbeats and the
	// expiry ticker form the liveness loop; the repair engine restores
	// redundancy after provider loss. All three default off so the
	// paper-faithful experiments keep their exact traffic shape.
	HeartbeatInterval time.Duration // providers heartbeat store stats to the pmanager (0 disables)
	ExpireAfter       time.Duration // pmanager expires providers silent this long (0 disables)
	RepairInterval    time.Duration // background repair scan period (0 = on-demand via RepairEngine only)
	RepairConcurrency int           // parallel block repairs (0 = repair.DefaultConcurrency)

	// VMShards runs K independent version-manager shard services
	// instead of one. Shard k owns the blob IDs with
	// vmanager.ShardOf(id, K) == k and keeps its own WAL (under
	// DataDir/vmanager/shard-<k> when durable); clients route through a
	// vmanager.Router, so publish throughput scales with K. 0/1 keeps
	// the classic single manager.
	VMShards int

	// Crash durability (the control-plane WAL). DataDir enables
	// write-ahead logging for the version manager and the namespace
	// under DataDir/vmanager and DataDir/namespace; both recover their
	// state from the logs at start. Empty keeps the historical
	// in-memory-only control plane.
	DataDir string
	// WALSyncInterval selects the fsync policy: 0 syncs every record
	// (no acknowledged operation is ever lost); >0 batches fsyncs at
	// this interval (client-acked publishes are still always synced).
	WALSyncInterval time.Duration
	// CallTimeout is the per-call RPC I/O deadline applied to the
	// deployment's shared pool: calls against a hung peer fail (and
	// become retryable) after this long. 0 disables, the historical
	// behavior.
	CallTimeout time.Duration

	// MetricsAddr, when non-empty, serves the whole deployment's
	// metrics over HTTP at this address ("127.0.0.1:0" picks a free
	// port; MetricsURL reports the bound endpoint). Every daemon's
	// registry is exported under its service name regardless — the
	// address only controls whether an HTTP listener fronts them. The
	// same listener also serves the trace exporter at /trace.
	MetricsAddr string

	// Distributed tracing. Every daemon always carries a tracer (it
	// records only requests that arrive already-traced, so an untraced
	// workload costs nothing); TraceSample sets the client-side head
	// sampling probability in [0,1], TraceSlow force-samples any client
	// root operation slower than the threshold, and TraceBuf bounds
	// each tracer's span ring (0 = trace.DefaultBufSpans).
	TraceSample float64
	TraceSlow   time.Duration
	TraceBuf    int

	// StoreURL selects every data provider's block-store backend (see
	// store.Open): "mem://" (the default when empty), "file:///path",
	// "http://peer/base", or a composing "tiered://?hot=...&cold=...".
	// A "{n}" anywhere in the URL expands to the provider index, so one
	// template configures the whole fleet without directory collisions.
	StoreURL string
}

func (c *Config) fill() {
	if c.DataProviders == 0 {
		c.DataProviders = 4
	}
	if c.MetaProviders == 0 {
		c.MetaProviders = 2
	}
	if c.BlockSize == 0 {
		c.BlockSize = util.MB // tests default to small blocks
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.MetaReplication == 0 {
		c.MetaReplication = 1
	}
	if c.Strategy == nil {
		c.Strategy = placement.NewRoundRobin()
	}
	if c.VMShards == 0 {
		c.VMShards = 1
	}
	if c.ReadaheadBlocks == 0 {
		c.ReadaheadBlocks = bsfs.DefaultReadaheadBlocks
	}
	if c.WriteBehindDepth == 0 {
		c.WriteBehindDepth = bsfs.DefaultWriteBehindDepth
	}
}

// BlobSeer is a running deployment.
type BlobSeer struct {
	Cfg           Config
	Pool          *rpc.Pool
	VMAddr        string   // shard 0's address (the whole manager when unsharded)
	VMAddrs       []string // every version-manager shard, in shard order
	PMAddr        string
	NSAddr        string
	ProviderAddrs []string
	MetaAddrs     []string
	MetaStore     mdtree.Store
	Overlay       *repair.Overlay

	metas     map[string]*node.Node
	vms       []*node.Node // per shard, in shard order
	pm, ns    *node.Node
	providers map[string]*node.Node
	repair    *node.Node

	exporter    *metrics.Exporter
	metricsURL  string
	stopMetrics func() error

	tracersMu    sync.Mutex
	tracers      map[string]*trace.Tracer // per-daemon, by service name
	clientTracer *trace.Tracer            // shared by every NewClient of this deployment
	traceExp     *trace.Exporter

	net *rpc.InprocNetwork // nil on TCP
}

// StartBlobSeer deploys all services of a BlobSeer instance.
func StartBlobSeer(cfg Config) (*BlobSeer, error) {
	cfg.fill()
	c := &BlobSeer{
		Cfg:       cfg,
		metas:     make(map[string]*node.Node),
		providers: make(map[string]*node.Node),
		exporter:  metrics.NewExporter(),
		tracers:   make(map[string]*trace.Tracer),
		traceExp:  trace.NewExporter(),
	}
	c.clientTracer = trace.New("client", cfg.TraceBuf)
	c.clientTracer.SetSampling(cfg.TraceSample, cfg.TraceSlow)
	c.traceExp.Register(c.clientTracer)
	c.net, c.Pool = newTransport(cfg.UseTCP)
	if cfg.CallTimeout > 0 {
		c.Pool.SetCallTimeout(cfg.CallTimeout)
	}
	if err := c.startAll(); err != nil {
		c.Stop()
		return nil, err
	}
	if cfg.MetricsAddr != "" {
		bound, stop, err := node.ServeMetrics(cfg.MetricsAddr, c.exporter, c.traceExp)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: metrics listener: %w", err)
		}
		c.metricsURL = "http://" + bound
		c.stopMetrics = stop
	}
	return c, nil
}

// startAll starts every daemon, each role after the ones it dials.
func (c *BlobSeer) startAll() error {
	cfg := c.Cfg
	for i := 0; i < cfg.MetaProviders; i++ {
		n, err := c.start(fmt.Sprintf("meta-%d", i), "", node.Config{Role: node.Meta})
		if err != nil {
			return err
		}
		c.MetaAddrs = append(c.MetaAddrs, n.Addr)
		c.metas[n.Addr] = n
	}
	dhtClient := dht.NewClient(dht.NewRing(c.MetaAddrs, dht.DefaultVnodes), c.Pool, cfg.MetaReplication)
	c.MetaStore = mdtree.NewDHTStore(dhtClient)
	// The location overlay shares the metadata DHT: relocation records
	// are tiny KV entries under their own namespace.
	c.Overlay = repair.NewOverlay(dhtClient)

	for k := 0; k < cfg.VMShards; k++ {
		n, err := c.start(c.vmName(k), "", node.Config{
			Role:            node.VManager,
			MetaAddrs:       c.MetaAddrs,
			MetaReplication: cfg.MetaReplication,
			Shard:           vmanager.ShardInfo{Index: k, Count: cfg.VMShards},
			WriteTimeout:    cfg.WriteTimeout,
			DataDir:         cfg.DataDir,
			WALSyncInterval: cfg.WALSyncInterval,
		})
		if err != nil {
			return err
		}
		c.vms = append(c.vms, n)
		c.VMAddrs = append(c.VMAddrs, n.Addr)
	}
	c.VMAddr = c.VMAddrs[0]

	var err error
	if c.pm, err = c.start("pmanager", "", node.Config{
		Role:        node.PManager,
		Strategy:    cfg.Strategy,
		ExpireAfter: cfg.ExpireAfter,
	}); err != nil {
		return err
	}
	c.PMAddr = c.pm.Addr

	if c.ns, err = c.start("namespace", "", node.Config{
		Role:            node.Namespace,
		VMAddrs:         c.VMAddrs,
		DataDir:         cfg.DataDir,
		WALSyncInterval: cfg.WALSyncInterval,
	}); err != nil {
		return err
	}
	c.NSAddr = c.ns.Addr

	// Each data provider lives on its own synthetic host, mirroring the
	// paper's one-provider-per-machine deployment.
	storeURL := cfg.StoreURL
	if storeURL == "" {
		storeURL = "mem://"
	}
	for i := 0; i < cfg.DataProviders; i++ {
		n, err := c.start(fmt.Sprintf("provider-%d", i), "", node.Config{
			Role:              node.Provider,
			PMAddr:            c.PMAddr,
			Host:              c.HostOf(i),
			StoreURL:          store.MemberURL(storeURL, i),
			HeartbeatInterval: cfg.HeartbeatInterval,
		})
		if err != nil {
			return err
		}
		c.ProviderAddrs = append(c.ProviderAddrs, n.Addr)
		c.providers[n.Addr] = n
	}

	// The repair engine always exists (tests and tools drive RunOnce
	// directly); its background loop runs only with a scan period.
	c.repair, err = c.start("repair", "", node.Config{
		Role:              node.Repair,
		VMAddrs:           c.VMAddrs,
		PMAddr:            c.PMAddr,
		MetaAddrs:         c.MetaAddrs,
		MetaReplication:   cfg.MetaReplication,
		RepairInterval:    cfg.RepairInterval,
		RepairConcurrency: cfg.RepairConcurrency,
	})
	return err
}

// start runs one daemon named name on a fresh endpoint, or on addr
// again when restarting it, and exports its metrics under name.
func (c *BlobSeer) start(name, addr string, cfg node.Config) (*node.Node, error) {
	if cfg.Role != node.Repair {
		lis, err := listen(c.net, name, addr)
		if err != nil {
			return nil, err
		}
		cfg.Listener = lis
		cfg.Tracer = c.tracerFor(name)
	}
	cfg.Pool = c.Pool
	n, err := node.Start(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", name, err)
	}
	c.exporter.Register(name, n.Metrics())
	return n, nil
}

// newTransport returns a deployment's network: named in-process
// endpoints (nil on TCP) and the pool every daemon and client dials.
func newTransport(useTCP bool) (*rpc.InprocNetwork, *rpc.Pool) {
	if useTCP {
		return nil, rpc.NewPool(rpc.TCPDialer)
	}
	inproc := rpc.NewInprocNetwork()
	return inproc, rpc.NewPool(inproc.Dial)
}

// listen binds a daemon's endpoint: its name in process, or addr on
// loopback TCP (a free port when addr is empty). A restarted daemon
// comes back on its configured address, as on a real machine.
func listen(inproc *rpc.InprocNetwork, name, addr string) (net.Listener, error) {
	if inproc != nil {
		return inproc.Listen(name)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return rpc.ListenTCP(addr)
}

// vmName is shard k's endpoint name; shard 0 keeps the historical
// "vmanager" name so single-shard deployments are wire-identical.
func (c *BlobSeer) vmName(k int) string {
	if k == 0 {
		return "vmanager"
	}
	return fmt.Sprintf("vmanager-%d", k)
}

// tracerFor returns (creating on first use) the tracer of a named
// daemon and registers it with the deployment trace exporter. A
// restarted daemon keeps its tracer, so spans recorded before a crash
// and after the recovery stitch into one tree. Daemon tracers never
// head-sample on their own — they record exactly the requests that
// arrive carrying a sampled trace context.
func (c *BlobSeer) tracerFor(name string) *trace.Tracer {
	c.tracersMu.Lock()
	defer c.tracersMu.Unlock()
	t, ok := c.tracers[name]
	if !ok {
		t = trace.New(name, c.Cfg.TraceBuf)
		c.tracers[name] = t
		c.traceExp.Register(t)
	}
	return t
}

// KillProvider simulates a provider crash: its RPC server goes down
// (in-flight and future calls fail at the transport level) and its
// heartbeat loop stops, so only failure feedback or heartbeat expiry
// can remove it from the allocation pool — exactly a real crash's
// signature. The provider's store is NOT cleared: a later repair pass
// must not depend on it, but tests can inspect it.
func (c *BlobSeer) KillProvider(addr string) {
	if n := c.providers[addr]; n != nil {
		n.Kill()
	}
}

// RepairEngine exposes the deployment's repair plane (tests, tools).
func (c *BlobSeer) RepairEngine() *repair.Engine { return c.repair.RepairEng }

// Exporter exposes the deployment-wide metrics exporter. It is always
// populated (register extra registries, snapshot in tests); an HTTP
// listener fronts it only when Config.MetricsAddr was set.
func (c *BlobSeer) Exporter() *metrics.Exporter { return c.exporter }

// MetricsURL returns the served metrics endpoint ("http://host:port"),
// or "" when Config.MetricsAddr was empty. The same listener answers
// /trace queries.
func (c *BlobSeer) MetricsURL() string { return c.metricsURL }

// TraceExporter exposes the deployment-wide trace exporter: every
// daemon's span buffer plus the shared client tracer (tests stitch
// trees from it directly; the metrics listener serves it at /trace).
func (c *BlobSeer) TraceExporter() *trace.Exporter { return c.traceExp }

// ClientTracer exposes the tracer shared by every client of this
// deployment (tests adjust sampling per-scenario with SetSampling).
func (c *BlobSeer) ClientTracer() *trace.Tracer { return c.clientTracer }

// HostOf returns the synthetic host name of data provider i.
func (c *BlobSeer) HostOf(i int) string { return fmt.Sprintf("host-%d", i) }

// NewClient returns a core client for this deployment. host may be ""
// (a dedicated, non-co-deployed node, as in the paper's microbenchmark
// boot-up phases) or one of HostOf(i) for a co-deployed client.
func (c *BlobSeer) NewClient(host string) *core.Client {
	return c.newClient(host, nil)
}

func (c *BlobSeer) newClient(host string, reg *metrics.Registry) *core.Client {
	return core.NewClient(core.Config{
		Pool:          c.Pool,
		VMAddrs:       c.VMAddrs,
		PMAddr:        c.PMAddr,
		MetaStore:     c.MetaStore,
		Host:          host,
		MetaCacheSize: c.Cfg.MetaCacheSize,
		Overlay:       c.Overlay,
		Metrics:       reg,
		Tracer:        c.clientTracer,
	})
}

// NewMeteredClient returns a core client wired to a fresh metrics
// registry, registered with the deployment exporter under name — so a
// scrape shows the client side (resolve latency, cache hit rates,
// stream pipeline gauges) next to every daemon.
func (c *BlobSeer) NewMeteredClient(host, name string) (*core.Client, *metrics.Registry) {
	reg := metrics.NewRegistry()
	cl := c.newClient(host, reg)
	c.exporter.Register(name, reg)
	return cl, reg
}

// NewMeteredBSFS returns a BSFS client whose core client exports its
// metrics through the deployment exporter under name.
func (c *BlobSeer) NewMeteredBSFS(host, name string) (*bsfs.FS, error) {
	cl, _ := c.NewMeteredClient(host, name)
	return c.newBSFS(cl)
}

// NewBSFS returns a BSFS file-system client for this deployment.
func (c *BlobSeer) NewBSFS(host string) (*bsfs.FS, error) {
	return c.newBSFS(c.NewClient(host))
}

func (c *BlobSeer) newBSFS(cl *core.Client) (*bsfs.FS, error) {
	return bsfs.New(bsfs.Config{
		Core:             cl,
		NS:               namespace.NewClient(c.Pool, c.NSAddr),
		BlockSize:        c.Cfg.BlockSize,
		Replication:      c.Cfg.Replication,
		ReadaheadBlocks:  c.Cfg.ReadaheadBlocks,
		WriteBehindDepth: c.Cfg.WriteBehindDepth,
		DisableCache:     c.Cfg.DisableCache,
	})
}

// VMService exposes the version manager — shard 0 when sharded (tests).
func (c *BlobSeer) VMService() *vmanager.Service { return c.vms[0].VM }

// VMServiceShard exposes one version-manager shard (tests).
func (c *BlobSeer) VMServiceShard(k int) *vmanager.Service { return c.vms[k].VM }

// VMShards reports the configured shard count.
func (c *BlobSeer) VMShards() int { return len(c.vms) }

// NSService exposes the namespace manager (tests).
func (c *BlobSeer) NSService() *namespace.Service { return c.ns.NS }

// PMService exposes the provider manager (tests, layout metrics).
func (c *BlobSeer) PMService() *pmanager.Service { return c.pm.PM }

// ProviderService returns the daemon behind a provider address (tests,
// failure injection).
func (c *BlobSeer) ProviderService(addr string) *provider.Service {
	if n := c.providers[addr]; n != nil {
		return n.Provider
	}
	return nil
}

// MetaService returns the daemon behind a metadata provider address
// (tests, failure injection).
func (c *BlobSeer) MetaService(addr string) *dht.MetaService {
	if n := c.metas[addr]; n != nil {
		return n.Meta
	}
	return nil
}

// Stop shuts every daemon down gracefully, in reverse start order, so
// no daemon outlives one it dials.
func (c *BlobSeer) Stop() {
	if c.stopMetrics != nil {
		_ = c.stopMetrics()
		c.stopMetrics = nil
	}
	var all []*node.Node
	for _, a := range c.MetaAddrs {
		all = append(all, c.metas[a])
	}
	all = append(all, c.vms...)
	all = append(all, c.pm, c.ns)
	for _, a := range c.ProviderAddrs {
		all = append(all, c.providers[a])
	}
	all = append(all, c.repair)
	stopAll(all)
	c.Pool.Close()
}

// stopAll stops nodes in reverse order, skipping the never-started.
func stopAll(nodes []*node.Node) {
	for i := len(nodes) - 1; i >= 0; i-- {
		if nodes[i] != nil {
			nodes[i].Stop()
		}
	}
}
