// Package core implements the BlobSeer client — the paper's primary
// contribution seen from the application side. It orchestrates the
// versioning access interface of Section III-A over the distributed
// services: data providers (blocks), the provider manager (placement),
// metadata providers (segment trees in a DHT) and the version manager
// (version assignment and publication).
//
// The write path is the paper's two-phase protocol: data first, fully
// in parallel with all other writers; then version assignment (the only
// serialized step) followed by concurrent metadata weaving. Readers are
// completely decoupled: they only ever see published, immutable
// snapshots.
package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
	"blobseer/internal/metrics"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/stream"
	"blobseer/internal/trace"
	"blobseer/internal/vmanager"
)

// ErrNotPublished is returned when a read names a version newer than
// the latest published snapshot. Readers must not observe in-flight
// writes (Section III-A5).
var ErrNotPublished = errors.New("core: version not published yet")

// Concurrency limits for the data path.
const (
	putConcurrency   = 8  // block uploads in flight per write
	fetchConcurrency = 16 // block downloads in flight per read
)

// Config wires a Client to a deployment.
type Config struct {
	Pool   *rpc.Pool
	VMAddr string // version manager endpoint (single-shard deployments)
	// VMAddrs lists the version-manager shard endpoints in shard order
	// for a sharded control plane (addr k serves the blob IDs with
	// vmanager.ShardOf(id, K) == k). When set it takes precedence over
	// VMAddr; more than one address routes every call through a
	// vmanager.Router.
	VMAddrs   []string
	PMAddr    string       // provider manager endpoint
	MetaStore mdtree.Store // metadata DHT (mdtree.NewDHTStore) or test store
	Host      string       // this client's host name, for locality-aware placement

	// MetaCacheSize bounds the client-side cache of immutable tree
	// nodes: > 0 wraps MetaStore in an mdtree.NodeCache with that many
	// entries, < 0 uses mdtree.DefaultCacheSize, 0 disables caching.
	// Safe at any setting — nodes never change once written — and worth
	// enabling whenever the same ranges are read repeatedly (MapReduce
	// input scans).
	MetaCacheSize int

	// Overlay resolves relocated replicas: when the repair plane copies
	// a block off a dead provider, the new location is recorded here
	// (metadata is immutable, so the original replica set in the tree
	// leaf never changes). Reads consult it only after exhausting a
	// block's original replicas; nil disables the lookup.
	Overlay LocationOverlay

	// Metrics, when non-nil, receives the client's observability
	// surface: a resolve-latency histogram, node-cache and replica
	// fallback gauges, failure-feedback counters, and the streaming
	// layer's pipeline gauges. Nil keeps the data path metric-free
	// (every instrument degrades to a no-op).
	Metrics *metrics.Registry

	// Tracer, when non-nil, records client-side spans (read, readat,
	// resolve, write, ...) for sampled requests, and its sampling
	// policy decides which fresh requests start a trace. Nil keeps the
	// hot path trace-free; ops tagged via WithTrace still propagate
	// their trace context to the services either way.
	Tracer *trace.Tracer

	// DisableFailureFeedback stops the client from reporting providers
	// it could not reach to the provider manager. The feedback loop is
	// on by default: a MarkDead report pulls a dead provider out of the
	// allocation pool immediately instead of waiting for heartbeat
	// expiry. Reports fire only on transport-level failures (connection
	// refused/broken), never on application errors, and are rate-limited
	// per provider.
	DisableFailureFeedback bool
}

// LocationOverlay is the read path's view of the repair plane's
// relocation records (implemented by repair.Overlay). Get returns the
// extra providers holding repair copies of the block (nil when none);
// Remove purges the record when the block itself is garbage-collected.
type LocationOverlay interface {
	Get(ctx context.Context, key blob.BlockKey) ([]string, error)
	Remove(ctx context.Context, key blob.BlockKey) error
}

// Client is a BlobSeer client. It is safe for concurrent use; all
// state it keeps is cache (histories, provider host map).
type Client struct {
	vm         vmanager.API
	pm         *pmanager.Client
	prov       *provider.Client
	meta       mdtree.Store
	host       string
	nonce      nonceSource
	readRR     atomic.Uint64 // rotates the first replica tried per fetch
	overlay    LocationOverlay
	noFeedback bool

	deadReports    atomic.Uint64 // MarkDead feedback reports sent
	deadSuppressed atomic.Uint64 // reports dropped by the per-provider rate limit

	reg      *metrics.Registry  // nil unless Config.Metrics was set
	mResolve *metrics.Histogram // metadata resolve latency per readInto
	coll     *stream.Collector  // client-wide stream pipeline counters (nil when unmetered)
	tracer   *trace.Tracer      // nil unless Config.Tracer was set (nil is a no-op)

	mu        sync.Mutex
	histories map[blob.ID]*blob.History
	metas     map[blob.ID]blob.Meta
	sizes     map[verKey]int64     // published (blob, version) -> size; descriptors are immutable
	hosts     map[string]string    // provider addr -> host
	reported  map[string]time.Time // providers recently reported dead (rate limit)
}

// verKey names one published snapshot for the size cache.
type verKey struct {
	id blob.ID
	v  blob.Version
}

// maxSizeCacheEntries bounds the published-version size cache. Cached
// sizes are tiny and immutable, but a long-lived client pinning many
// versions must not grow without limit; on overflow the whole map is
// dropped (entries are one cheap Latest/VersionInfo round-trip to
// refill, so plain reset beats LRU bookkeeping here).
const maxSizeCacheEntries = 4096

// NewClient builds a client from cfg.
func NewClient(cfg Config) *Client {
	meta := mdtree.MaybeCache(cfg.MetaStore, cfg.MetaCacheSize)
	c := &Client{
		vm:         NewVMClient(cfg.Pool, cfg.VMAddr, cfg.VMAddrs),
		pm:         pmanager.NewClient(cfg.Pool, cfg.PMAddr),
		prov:       provider.NewClient(cfg.Pool),
		meta:       meta,
		host:       cfg.Host,
		overlay:    cfg.Overlay,
		noFeedback: cfg.DisableFailureFeedback,
		tracer:     cfg.Tracer,
		nonce:      newNonceSource(),
		histories:  make(map[blob.ID]*blob.History),
		metas:      make(map[blob.ID]blob.Meta),
		sizes:      make(map[verKey]int64),
		hosts:      make(map[string]string),
		reported:   make(map[string]time.Time),
	}
	if reg := cfg.Metrics; reg != nil {
		c.reg = reg
		c.mResolve = reg.Histogram("resolve_latency")
		c.coll = &stream.Collector{}
		reg.GaugeFunc("dead_reports", func() int64 { return int64(c.deadReports.Load()) })
		reg.GaugeFunc("dead_reports_suppressed", func() int64 { return int64(c.deadSuppressed.Load()) })
		reg.GaugeFunc("meta_cache_hits", func() int64 { return c.MetaCacheStats().Hits })
		reg.GaugeFunc("meta_cache_misses", func() int64 { return c.MetaCacheStats().Misses })
		if f, ok := cfg.MetaStore.(interface{ Fallbacks() int64 }); ok {
			reg.GaugeFunc("meta_replica_fallbacks", f.Fallbacks)
		}
		reg.GaugeFunc("readers_open", c.coll.ReadersOpen)
		reg.GaugeFunc("writers_open", c.coll.WritersOpen)
		reg.GaugeFunc("prefetched", c.coll.Prefetched)
		reg.GaugeFunc("prefetch_hits", c.coll.PrefetchHits)
		reg.GaugeFunc("prefetch_canceled", c.coll.Canceled)
		reg.GaugeFunc("write_behind_depth", c.coll.WriteBehindDepth)
		reg.GaugeFunc("write_behind_commits", c.coll.WriteBehindCommits)
		reg.GaugeFunc("write_behind_bytes", c.coll.WriteBehindBytes)
	}
	return c
}

// Metrics exposes the registry handed in via Config.Metrics (nil for an
// unmetered client).
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// Tracer exposes the tracer handed in via Config.Tracer (nil for an
// untraced client).
func (c *Client) Tracer() *trace.Tracer { return c.tracer }

// WithTrace force-samples: it returns ctx tagged with a fresh trace
// root plus the trace ID to look the spans up with later. Every RPC
// issued under the returned context is traced end to end — client-side
// spans (when the client has a tracer), every service hop's server
// span — regardless of any sampling rate. This is how the blaster and
// tests tag individual operations, and how `bsfsctl trace` gets an ID
// to stitch.
func WithTrace(ctx context.Context) (context.Context, trace.ID) {
	return trace.WithRoot(ctx)
}

// StreamCollector returns the client-wide stream pipeline counters, or
// nil for an unmetered client (stream wiring is nil-safe either way).
func (c *Client) StreamCollector() *stream.Collector { return c.coll }

// DeadReports reports how many MarkDead feedback reports this client
// has sent to the provider manager (tests, observability).
func (c *Client) DeadReports() uint64 { return c.deadReports.Load() }

// DeadReportsSuppressed reports how many MarkDead reports the
// per-provider rate limit swallowed. A high ratio of suppressed to sent
// reports means the client keeps hitting the same dead providers —
// stale metadata pointing at a departed node, or a repair plane that
// cannot keep up.
func (c *Client) DeadReportsSuppressed() uint64 { return c.deadSuppressed.Load() }

// deadReportTTL rate-limits MarkDead feedback per provider: one report
// per TTL is plenty — the provider manager needs the bit once, and a
// revived provider re-registers or heartbeats its way back in.
const deadReportTTL = 30 * time.Second

// reportDead closes the failure-feedback loop: a provider the client
// could not reach at the transport level is reported to the provider
// manager so allocation stops handing it out before heartbeat expiry
// fires. Fire-and-forget on a background context — the caller's read or
// write must not block on control-plane bookkeeping.
func (c *Client) reportDead(addr string, err error) {
	if c.noFeedback || !rpc.TransportFailure(err) {
		return
	}
	c.mu.Lock()
	if at, ok := c.reported[addr]; ok && time.Since(at) < deadReportTTL {
		c.mu.Unlock()
		c.deadSuppressed.Add(1)
		return
	}
	c.reported[addr] = time.Now()
	c.mu.Unlock()
	c.deadReports.Add(1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.pm.MarkDead(ctx, addr)
	}()
}

// MetaCacheStats returns the client's node-cache counters, or zeroes
// when the client runs uncached.
func (c *Client) MetaCacheStats() mdtree.CacheStats {
	if nc, ok := c.meta.(*mdtree.NodeCache); ok {
		return nc.Stats()
	}
	return mdtree.CacheStats{}
}

// nonceSource hands out write nonces unique across clients with
// overwhelming probability: a random 64-bit base plus a counter.
type nonceSource struct {
	base    uint64
	counter *atomic.Uint64
}

func newNonceSource() nonceSource {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return nonceSource{base: binary.BigEndian.Uint64(b[:]), counter: new(atomic.Uint64)}
}

func (n nonceSource) next() uint64 { return n.base + n.counter.Add(1) }

// VM exposes the version-manager client (BSFS and tools need direct
// access for size/stat queries). In a sharded deployment this is a
// *vmanager.Router; otherwise a *vmanager.Client.
func (c *Client) VM() vmanager.API { return c.vm }

// NewVMClient builds the version-manager client surface for a
// deployment: a plain per-address client when there is one endpoint,
// a shard Router when there are several. addrs wins over addr.
func NewVMClient(pool *rpc.Pool, addr string, addrs []string) vmanager.API {
	switch {
	case len(addrs) > 1:
		return vmanager.NewRouter(pool, addrs)
	case len(addrs) == 1:
		return vmanager.NewClient(pool, addrs[0])
	default:
		return vmanager.NewClient(pool, addr)
	}
}

// Create allocates a new empty BLOB.
func (c *Client) Create(ctx context.Context, blockSize int64, replication int) (blob.Meta, error) {
	ctx, sp := c.tracer.Start(ctx, "create")
	m, err := c.vm.CreateBlob(ctx, blockSize, replication)
	sp.Finish(err)
	if err != nil {
		return blob.Meta{}, err
	}
	c.mu.Lock()
	c.metas[m.ID] = m
	c.mu.Unlock()
	return m, nil
}

// Meta returns the blob's static configuration (cached).
func (c *Client) Meta(ctx context.Context, id blob.ID) (blob.Meta, error) {
	c.mu.Lock()
	m, ok := c.metas[id]
	c.mu.Unlock()
	if ok {
		return m, nil
	}
	ctx, sp := c.tracer.Start(ctx, "meta")
	m, err := c.vm.GetMeta(ctx, id)
	sp.Finish(err)
	if err != nil {
		return blob.Meta{}, err
	}
	c.mu.Lock()
	c.metas[id] = m
	c.mu.Unlock()
	return m, nil
}

// Latest returns the newest published version and the blob size at it.
func (c *Client) Latest(ctx context.Context, id blob.ID) (blob.Version, int64, error) {
	ctx, sp := c.tracer.Start(ctx, "latest")
	v, size, err := c.vm.Latest(ctx, id)
	sp.Finish(err)
	return v, size, err
}

// WaitPublished blocks until version v is published (the snapshot
// notification mechanism of Section III-A5).
func (c *Client) WaitPublished(ctx context.Context, id blob.ID, v blob.Version, timeout time.Duration) (blob.Version, int64, error) {
	ctx, sp := c.tracer.Start(ctx, "wait")
	pv, size, err := c.vm.WaitPublished(ctx, id, v, timeout)
	sp.Finish(err)
	return pv, size, err
}

// Write stores data at off in blob id and returns the new snapshot
// version. Off must be block-aligned; a partial final block is only
// allowed when the write reaches (or extends) the end of the blob.
// The returned version may not be immediately readable: it publishes
// once all lower versions commit (use WaitPublished to observe it).
func (c *Client) Write(ctx context.Context, id blob.ID, off int64, data []byte) (blob.Version, error) {
	return c.doWrite(ctx, id, blob.KindWrite, off, data)
}

// Append adds data at the end of blob id; the offset is fixed by the
// version manager at assignment time (Section III-D).
func (c *Client) Append(ctx context.Context, id blob.ID, data []byte) (blob.Version, error) {
	return c.doWrite(ctx, id, blob.KindAppend, 0, data)
}

func (c *Client) doWrite(ctx context.Context, id blob.ID, kind blob.WriteKind, off int64, data []byte) (_ blob.Version, err error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("core: empty %s", kind)
	}
	op := "write"
	if kind == blob.KindAppend {
		op = "append"
	}
	ctx, sp := c.tracer.Start(ctx, op)
	defer func() { sp.Finish(err) }()
	m, err := c.Meta(ctx, id)
	if err != nil {
		return 0, err
	}
	if kind == blob.KindWrite && off%m.BlockSize != 0 {
		return 0, fmt.Errorf("core: write offset %d not aligned to block size %d", off, m.BlockSize)
	}
	nBlocks := int(blob.Blocks(int64(len(data)), m.BlockSize))

	// Phase 1a: allocate providers for every block of the patch.
	targets, err := c.pm.Allocate(ctx, nBlocks, m.Replication, c.host)
	if err != nil {
		return 0, fmt.Errorf("core: allocate providers: %w", err)
	}

	// Phase 1b: store all blocks, fully parallel with other writers.
	// One worker per block (putConcurrency in flight) ships the block
	// once to the head of its replica chain.
	nonce := c.nonce.next()
	refs := make([]mdtree.BlockRef, nBlocks)
	sem := make(chan struct{}, putConcurrency)
	var wg sync.WaitGroup
	var werrMu sync.Mutex
	var werr error
	for i := 0; i < nBlocks; i++ {
		start := int64(i) * m.BlockSize
		end := start + m.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		key := blob.BlockKey{Blob: id, Nonce: nonce, Seq: uint32(i)}
		refs[i] = mdtree.BlockRef{Key: key, Providers: targets[i], Len: end - start}
		chunk := data[start:end]
		wg.Add(1)
		sem <- struct{}{}
		go func(replicas []string, key blob.BlockKey, chunk []byte) {
			defer func() { <-sem; wg.Done() }()
			if err := c.putBlockChained(ctx, replicas, key, chunk); err != nil {
				werrMu.Lock()
				if werr == nil {
					werr = err
				}
				werrMu.Unlock()
			}
		}(targets[i], key, chunk)
	}
	wg.Wait()
	if werr != nil {
		// The paper: "If, for some reason, writing of a block fails,
		// then the whole write fails." No version was assigned, so no
		// repair is needed — just GC the orphaned blocks.
		c.gcBlocks(id, nonce, targets)
		return 0, werr
	}

	// Phase 2a: version assignment — the single serialization point.
	since := c.cachedLatest(id)
	a, err := c.vm.AssignVersion(ctx, id, kind, off, int64(len(data)), nonce, since)
	if err != nil {
		c.gcBlocks(id, nonce, targets)
		return 0, err
	}
	hist, err := c.extendHistory(id, a.Descs)
	if err != nil {
		// The version was assigned: leaving it dangling would stall
		// publication of every later version until the janitor notices.
		// Abort it so the version manager repairs the line now.
		if aerr := c.vm.Abort(ctx, id, a.Version); aerr != nil {
			return 0, fmt.Errorf("core: history cache failed (%v) and abort failed: %w", err, aerr)
		}
		c.gcBlocks(id, nonce, targets)
		return 0, fmt.Errorf("core: history cache: %w", err)
	}

	// Phase 2b: weave and store metadata, concurrently with all other
	// writers (including ones still working on lower versions).
	if _, err := mdtree.Build(ctx, c.meta, m, hist, a.Version, refs); err != nil {
		// Whatever Build managed to write through into the cache is
		// suspect from here on: the janitor will eventually abort this
		// version and the repairer rewrite its nodes in place. Purge
		// unconditionally — invalidation is local and always safe.
		c.invalidateMetaVersion(id, a.Version)
		// Let the version manager repair the line so later versions
		// stay readable, then GC our blocks.
		if aerr := c.vm.Abort(ctx, id, a.Version); aerr != nil {
			return 0, fmt.Errorf("core: metadata build failed (%v) and abort failed: %w", err, aerr)
		}
		c.gcBlocks(id, nonce, targets)
		return 0, fmt.Errorf("core: metadata build: %w", err)
	}

	// Phase 2c: report success; the VM publishes in version order.
	if err := c.vm.Commit(ctx, id, a.Version); err != nil {
		// A failed commit usually means the janitor aborted us and the
		// repairer rewrote our nodes; what we write-through cached is
		// now stale.
		c.invalidateMetaVersion(id, a.Version)
		return 0, err
	}
	return a.Version, nil
}

// putBlockChained stores one block on all its replicas through the
// streaming chain. A failed hop fails the block, and with it the whole
// write: the paper's rule.
func (c *Client) putBlockChained(ctx context.Context, replicas []string, key blob.BlockKey, chunk []byte) error {
	chain := c.chainOrder(ctx, replicas)
	if err := c.prov.PutChained(ctx, chain, key, chunk, provider.DefaultFrameSize); err != nil {
		// An unreachable chain head is a dead provider; a coded chain
		// failure only means some hop broke (the head answered).
		c.reportDead(chain[0], err)
		return fmt.Errorf("core: store block %s via %s: %w", key, chain[0], err)
	}
	return nil
}

// localReplicaIndex returns the index of the replica co-hosted with the
// client, or -1 when there is none (or the client has no host label).
func (c *Client) localReplicaIndex(ctx context.Context, replicas []string) int {
	if c.host == "" || len(replicas) < 2 {
		return -1
	}
	for i, h := range c.hostsFor(ctx, replicas) {
		if h == c.host {
			return i
		}
	}
	return -1
}

// chainOrder orders a block's replica set for chain transfer: the
// provider co-hosted with the client (if any) leads, so the first hop
// stays on the local machine and the block leaves the client NIC at
// most once.
func (c *Client) chainOrder(ctx context.Context, replicas []string) []string {
	i := c.localReplicaIndex(ctx, replicas)
	if i <= 0 {
		return replicas
	}
	ordered := make([]string, 0, len(replicas))
	ordered = append(ordered, replicas[i])
	ordered = append(ordered, replicas[:i]...)
	ordered = append(ordered, replicas[i+1:]...)
	return ordered
}

// invalidateMetaVersion purges a version's nodes from the client's
// metadata cache after an abort: repair re-Builds those node IDs with
// empty block refs, so the cached copies no longer match the published
// tree.
func (c *Client) invalidateMetaVersion(id blob.ID, v blob.Version) {
	if nc, ok := c.meta.(*mdtree.NodeCache); ok {
		nc.InvalidateVersion(id, v)
	}
}

// gcBlocks best-effort deletes every block a failed write stored.
func (c *Client) gcBlocks(id blob.ID, nonce uint64, targets [][]string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := map[string]bool{}
	for _, set := range targets {
		for _, addr := range set {
			if !seen[addr] {
				seen[addr] = true
				_, _ = c.prov.DeleteWrite(ctx, addr, id, nonce)
			}
		}
	}
}

func (c *Client) cachedLatest(id blob.ID) blob.Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.histories[id]; ok {
		return h.Latest()
	}
	return 0
}

// extendHistory merges descriptors into the cache and returns a private
// snapshot safe to use during metadata builds.
func (c *Client) extendHistory(id blob.ID, descs []blob.WriteDesc) (*blob.History, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.histories[id]
	if !ok {
		h = &blob.History{}
		c.histories[id] = h
	}
	if err := h.Extend(descs); err != nil {
		return nil, err
	}
	return h.Clone(), nil
}

// versionSize resolves the blob size at published version v, caching
// the answer: published write descriptors are immutable, so once a
// (blob, version) pair has been seen published its size never changes.
// A version newer than the latest published snapshot fails with
// ErrNotPublished.
func (c *Client) versionSize(ctx context.Context, id blob.ID, v blob.Version) (int64, error) {
	key := verKey{id, v}
	c.mu.Lock()
	size, ok := c.sizes[key]
	c.mu.Unlock()
	if ok {
		return size, nil
	}
	pub, pubSize, err := c.vm.Latest(ctx, id)
	if err != nil {
		return 0, err
	}
	if v > pub {
		return 0, fmt.Errorf("%w: version %d, published %d", ErrNotPublished, v, pub)
	}
	if v == pub {
		size = pubSize
	} else {
		d, err := c.vm.VersionInfo(ctx, id, v)
		if err != nil {
			return 0, err
		}
		size = d.SizeAfter
	}
	c.mu.Lock()
	if len(c.sizes) >= maxSizeCacheEntries {
		c.sizes = make(map[verKey]int64)
	}
	c.sizes[key] = size
	c.mu.Unlock()
	return size, nil
}

// Read returns length bytes starting at off from version v of blob id
// (v == blob.NoVersion reads the latest published snapshot). Reads are
// clamped at the snapshot size; unwritten regions read as zeros.
//
// Read is a compatibility shim over the Snapshot handle path: it pins
// the version, allocates a result buffer, and fills it with one
// ReadAt. Its clamp semantics are deliberately loose — a read past EOF
// and a read of an unpublished (empty) blob both return (nil, nil),
// indistinguishable from each other. Callers that need to tell the two
// apart, or that read the same version more than once, should use
// OpenBlob/Snapshot: the handle resolves the version metadata once and
// reads into caller-owned buffers with no per-call round-trips.
func (c *Client) Read(ctx context.Context, id blob.ID, v blob.Version, off, length int64) (_ []byte, err error) {
	ctx, sp := c.tracer.Start(ctx, "read")
	defer func() { sp.Finish(err) }()
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return nil, err
	}
	s, err := b.Snapshot(ctx, v)
	if err != nil {
		return nil, err
	}
	if off >= s.size || length <= 0 {
		return nil, nil // empty blob, zero-length request, or past-EOF clamp
	}
	if off+length > s.size {
		length = s.size - off
	}
	buf := make([]byte, length)
	if _, err := s.ReadAtContext(ctx, buf, off); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// readInto resolves [off, off+len(dst)) of version v into extents and
// fetches each extent's bytes directly into the matching subslice of
// dst — the zero-copy core of Snapshot.ReadAt: no whole-range
// intermediate buffer exists at any point. Holes and the zero tails of
// short blocks are cleared explicitly (dst may be a reused buffer
// holding stale bytes). The requested range must lie inside the
// snapshot.
func (c *Client) readInto(ctx context.Context, m blob.Meta, v blob.Version, size, off int64, dst []byte) error {
	t0 := time.Now()
	rctx, sp := c.tracer.Start(ctx, "resolve")
	extents, err := mdtree.Resolve(rctx, c.meta, m, v, size, blob.Range{Off: off, Len: int64(len(dst))})
	sp.Finish(err)
	c.mResolve.ObserveSince(t0)
	if err != nil {
		return err
	}
	fill := func(ctx context.Context, e mdtree.Extent) error {
		sub := dst[e.FileOff-off : e.FileOff-off+e.Len]
		if !e.HasData || len(e.Block.Providers) == 0 {
			clear(sub) // hole or repaired-abort leaf reads as zeros
			return nil
		}
		n, err := c.fetchExtentInto(ctx, e, sub)
		if err != nil {
			return err
		}
		clear(sub[n:]) // bytes past the stored block length read as zeros
		return nil
	}
	if len(extents) == 1 {
		// The common small-read case: one extent, no fan-out machinery.
		return fill(ctx, extents[0])
	}
	sem := make(chan struct{}, fetchConcurrency)
	var wg sync.WaitGroup
	var rerrMu sync.Mutex
	var rerr error
	for _, e := range extents {
		wg.Add(1)
		sem <- struct{}{}
		go func(e mdtree.Extent) {
			defer func() { <-sem; wg.Done() }()
			if err := fill(ctx, e); err != nil {
				rerrMu.Lock()
				if rerr == nil {
					rerr = err
				}
				rerrMu.Unlock()
			}
		}(e)
	}
	wg.Wait()
	return rerr
}

// fetchExtentInto reads one extent into dst, returning the byte count
// stored (a block shorter than the request leaves a zero tail for the
// caller to clear). A replica co-hosted with the client is tried first
// (Map/Reduce schedules tasks onto replica hosts expecting a local
// read); otherwise the starting replica rotates so concurrent readers
// spread load across the replica set instead of serializing on the
// first address. Either way the remaining replicas serve as failover,
// and once the original replica set is exhausted the location overlay
// is consulted for repair copies. Providers that failed at the
// transport level are reported to the provider manager.
func (c *Client) fetchExtentInto(ctx context.Context, e mdtree.Extent, dst []byte) (int, error) {
	n := len(e.Block.Providers)
	start := c.localReplicaIndex(ctx, e.Block.Providers)
	if start < 0 {
		start = 0
		if n > 1 {
			start = int(c.readRR.Add(1) % uint64(n))
		}
	}
	var lastErr error
	for i := 0; i < n; i++ {
		addr := e.Block.Providers[(start+i)%n]
		data, err := c.prov.Get(ctx, addr, e.Block.Key, e.DataOff, e.Len)
		if err == nil {
			return copy(dst, data), nil
		}
		c.reportDead(addr, err)
		lastErr = err
	}
	// Every original replica failed; a repair pass may have relocated
	// the block. Addresses already tried are skipped.
	if c.overlay != nil {
		extras, oerr := c.overlay.Get(ctx, e.Block.Key)
		if oerr == nil {
			tried := make(map[string]bool, n)
			for _, a := range e.Block.Providers {
				tried[a] = true
			}
			for _, addr := range extras {
				if tried[addr] {
					continue
				}
				data, err := c.prov.Get(ctx, addr, e.Block.Key, e.DataOff, e.Len)
				if err == nil {
					return copy(dst, data), nil
				}
				c.reportDead(addr, err)
				lastErr = err
			}
		}
	}
	return 0, fmt.Errorf("core: all replicas failed for %s: %w", e.Block.Key, lastErr)
}

// Location describes where one piece of a blob range physically lives —
// the primitive BSFS maps Hadoop's getFileBlockLocations onto
// (Section IV-C).
type Location struct {
	Off       int64
	Len       int64
	Providers []string // provider RPC addresses (replicas)
	Hosts     []string // physical hosts of those providers
}

// Locations returns the block locations covering [off, off+length) of
// version v (NoVersion = latest published). Like Read, it is a shim
// over the Snapshot handle path: pinning a Snapshot once and calling
// its Locations avoids re-resolving the version on every query.
func (c *Client) Locations(ctx context.Context, id blob.ID, v blob.Version, off, length int64) ([]Location, error) {
	b, err := c.OpenBlob(ctx, id)
	if err != nil {
		return nil, err
	}
	s, err := b.Snapshot(ctx, v)
	if err != nil {
		return nil, err
	}
	return s.Locations(ctx, off, length)
}

// locationsAt maps a pinned (version, size) range onto provider
// addresses and hosts.
func (c *Client) locationsAt(ctx context.Context, m blob.Meta, v blob.Version, size, off, length int64) ([]Location, error) {
	extents, err := mdtree.Resolve(ctx, c.meta, m, v, size, blob.Range{Off: off, Len: length})
	if err != nil {
		return nil, err
	}
	out := make([]Location, 0, len(extents))
	for _, e := range extents {
		loc := Location{Off: e.FileOff, Len: e.Len}
		if e.HasData {
			loc.Providers = e.Block.Providers
			loc.Hosts = c.hostsFor(ctx, e.Block.Providers)
		}
		out = append(out, loc)
	}
	return out, nil
}

// hostsFor maps provider addresses to hosts, refreshing the cached
// membership once on a miss.
func (c *Client) hostsFor(ctx context.Context, addrs []string) []string {
	c.mu.Lock()
	missing := false
	for _, a := range addrs {
		if _, ok := c.hosts[a]; !ok {
			missing = true
			break
		}
	}
	c.mu.Unlock()
	if missing {
		if infos, err := c.pm.List(ctx); err == nil {
			c.mu.Lock()
			for _, in := range infos {
				c.hosts[in.Addr] = in.Host
			}
			// Addresses the membership no longer lists (dead and
			// deregistered providers referenced by old block refs) are
			// cached as unknown, so they don't re-trigger a List
			// round-trip on every subsequent fetch.
			for _, a := range addrs {
				if _, ok := c.hosts[a]; !ok {
					c.hosts[a] = ""
				}
			}
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hosts := make([]string, len(addrs))
	for i, a := range addrs {
		hosts[i] = c.hosts[a] // "" if unknown
	}
	return hosts
}
