// Package provider implements BlobSeer's data providers: the daemons
// that physically store the blocks generated by writes and appends
// (Section III-B). A provider is an RPC shell over a store.Store; the
// same implementation backs the datanodes of the HDFS-like baseline,
// which reuses the block read/write protocol.
//
// Beyond whole-block put/get, providers form the streaming chain
// replication data plane: a client ships each block once to the head of
// a replica chain as a sequence of fixed-size frames, and every hop
// persists each frame locally while concurrently forwarding it to the
// next replica. The ack of a frame travels back from the tail, so the
// client's last-frame ack means the whole chain holds the block. This
// moves the (R-1)×B bytes of replication traffic off the client's
// uplink and onto provider-to-provider links.
//
// # Wire format
//
// All payloads use the package wire codec (big-endian, length-prefixed
// strings and byte slices). A block key serializes as
// blob u64 | nonce u64 | seq u32. The methods:
//
//	1 mPutBlock     request:  key | data bytes32                 response: empty
//	2 mGetBlock     request:  key | off i64 | len i64            response: data bytes32 (or status CodeNotFound)
//	3 mHasBlock     request:  key                                response: present bool
//	4 mDeleteWrite  request:  blob u64 | nonce u64               response: deleted u32
//	5 mDeleteBlock  request:  key                                response: empty
//	6 mStat         request:  empty                              response: items i64 | bytes i64 | ntiers u32 |
//	                                                                       (name string | items i64 | bytes i64)*
//	7 mPutChained   request:  key | chain stringslice |          response: empty (or status CodeChainFail)
//	                          off i64 | total i64 |
//	                          data bytes32
//	8 mBlockReport  request:  prefix string                      response: count u32 | key*
//	9 mReplicate    request:  key | targets stringslice          response: empty (or status CodeNotFound /
//	                                                                       CodeChainFail)
//
// mBlockReport is the repair plane's inventory primitive: it enumerates
// the block keys the provider's store currently holds under prefix
// ("b" for all blocks). mReplicate pushes one locally stored block to
// the named target providers by reusing the chained data plane — the
// provider acts as the client of its own replica chain, so repair
// traffic stays provider-to-provider and inherits the chain's
// commit-on-tail-ack guarantees.
//
// mPutChained's chain lists the replicas downstream of the receiver;
// each hop re-frames the payload with itself stripped (chain[1:]) and
// forwards to chain[0]. Frames are self-describing (off/total), so hops
// apply them in any arrival order. A handler responds only after its
// local write and the downstream ack for the same frame both complete,
// and a hop commits its block only once every byte is both locally
// written and acked by the whole downstream chain — a failed chain
// never publishes the block anywhere upstream of the failure. Any error
// surfaces to the client as CodeChainFail, and the write fails as a
// whole.
package provider

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/metrics"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// RPC method numbers.
const (
	mPutBlock uint16 = iota + 1
	mGetBlock
	mHasBlock
	mDeleteWrite
	mDeleteBlock
	mStat
	mPutChained
	mBlockReport
	mReplicate
)

// methodNames maps method numbers to operation names (method - 1).
var methodNames = [mReplicate]string{
	"put_block", "get_block", "has_block", "delete_write", "delete_block",
	"stat", "put_chained", "block_report", "replicate",
}

// MethodName maps an RPC method number to its operation name, for the
// server-side tracer.
func MethodName(m uint16) string {
	if m >= 1 && m <= mReplicate {
		return methodNames[m-1]
	}
	return "unknown"
}

// CodeNotFound is the RPC status for a missing block.
const CodeNotFound uint16 = 10

// CodeChainFail is the RPC status for a chained put that failed at this
// hop or anywhere downstream.
const CodeChainFail uint16 = 11

// ErrBlockNotFound is returned when a requested block is absent.
var ErrBlockNotFound = rpc.CodedError(CodeNotFound, "provider: block not found")

// DefaultFrameSize is the streaming frame payload size of chained puts:
// large enough to amortize per-frame RPC overhead, small enough that a
// 64 MB block pipelines across chain hops instead of store-and-forward.
const DefaultFrameSize = 1 << 20

const (
	// chainHopTimeout bounds one downstream frame forward; a stuck hop
	// must not pin handler goroutines past the client's patience.
	chainHopTimeout = 30 * time.Second
	// uploadTTL is how long an idle in-flight upload may linger before
	// the sweep aborts it (its writer died mid-chain).
	uploadTTL = time.Minute
)

// Service is the provider-side implementation.
type Service struct {
	store store.Store
	fwd   *Client // forwards chain frames downstream

	// Metrics are resolved once at construction so the data path never
	// touches the registry map.
	reg          *metrics.Registry
	mBytesIn     *metrics.Counter
	mBytesOut    *metrics.Counter
	mPuts        *metrics.Counter
	mGets        *metrics.Counter
	mChainFrames *metrics.Counter
	mCommits     *metrics.Counter
	mFailed      *metrics.Counter
	mReaps       *metrics.Counter
	mReplicas    *metrics.Counter
	mHopLatency  *metrics.Histogram

	chainBroken atomic.Bool // test hook: fail every chained put

	mu      sync.Mutex
	uploads map[string]*upload
	// deleted tombstones recently GC'd write prefixes so straggler
	// chain frames (forwarded on detached contexts that outlive the
	// client's RPC) cannot re-create a block after DeleteWrite reclaimed
	// it — that block would be referenced by no metadata and its nonce
	// GC already ran, so nothing would ever delete it again.
	deleted map[string]time.Time
	// failed tombstones recently failed upload keys so in-flight
	// sibling frames of a doomed chain are rejected outright instead of
	// re-creating a partial upload that pins a buffer until the reaper.
	failed map[string]time.Time
}

// upload tracks one in-flight chained block transfer.
type upload struct {
	lastActive atomic.Int64 // unix nanos of the latest frame (stale sweep)

	mu        sync.Mutex
	w         store.BlockWriter
	total     int64
	received  int64 // bytes written locally
	acked     int64 // bytes both written locally and acked downstream
	committed bool
	failed    bool
}

func (u *upload) touch() { u.lastActive.Store(time.Now().UnixNano()) }

func (u *upload) idle() time.Duration {
	return time.Since(time.Unix(0, u.lastActive.Load()))
}

// NewService returns a provider service over st that forwards chain
// frames (and repair pushes) to downstream replicas through pool.
func NewService(st store.Store, pool *rpc.Pool) *Service {
	s := &Service{
		store:   st,
		fwd:     NewClient(pool),
		uploads: make(map[string]*upload),
		deleted: make(map[string]time.Time),
		failed:  make(map[string]time.Time),
	}
	s.reg = metrics.NewRegistry()
	s.mBytesIn = s.reg.Counter("bytes_in")
	s.mBytesOut = s.reg.Counter("bytes_out")
	s.mPuts = s.reg.Counter("puts")
	s.mGets = s.reg.Counter("gets")
	s.mChainFrames = s.reg.Counter("chain_frames")
	s.mCommits = s.reg.Counter("chain_commits")
	s.mFailed = s.reg.Counter("failed_uploads")
	s.mReaps = s.reg.Counter("stale_upload_reaps")
	s.mReplicas = s.reg.Counter("replicate_pushes")
	s.mHopLatency = s.reg.Histogram("chain_hop_latency")
	s.reg.GaugeFunc("uploads_inflight", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.uploads))
	})
	s.reg.GaugeFunc("store_items", func() int64 { return s.store.Stats().Items })
	s.reg.GaugeFunc("store_bytes", func() int64 { return s.store.Stats().Bytes })
	if t, ok := st.(*store.Tiered); ok {
		s.reg.GaugeFunc("tier_hot_hits", func() int64 { return t.Counters().HotHits })
		s.reg.GaugeFunc("tier_cold_hits", func() int64 { return t.Counters().ColdHits })
		s.reg.GaugeFunc("tier_promotions", func() int64 { return t.Counters().Promotions })
		s.reg.GaugeFunc("tier_demotions", func() int64 { return t.Counters().Demotions })
	}
	return s
}

// Metrics exposes the provider's registry (bytes in/out, chain frame
// and hop-latency stats, stale-upload sweeps, per-tier counters) for
// HTTP export.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// BreakChain makes every chained put fail at this provider (failure
// injection for tests: every replicated write through it fails whole).
func (s *Service) BreakChain(broken bool) { s.chainBroken.Store(broken) }

// Mux returns the RPC dispatch table for the service.
func (s *Service) Mux() *rpc.Mux {
	m := rpc.NewMux()
	m.Handle(mPutBlock, s.handlePut)
	m.Handle(mGetBlock, s.handleGet)
	m.Handle(mHasBlock, s.handleHas)
	m.Handle(mDeleteWrite, s.handleDeleteWrite)
	m.Handle(mDeleteBlock, s.handleDeleteBlock)
	m.Handle(mStat, s.handleStat)
	m.Handle(mPutChained, s.handlePutChained)
	m.Handle(mBlockReport, s.handleBlockReport)
	m.Handle(mReplicate, s.handleReplicate)
	return m
}

// Store exposes the underlying store (tests, GC sweeps).
func (s *Service) Store() store.Store { return s.store }

func decodeKey(r *wire.Reader) blob.BlockKey {
	return blob.BlockKey{
		Blob:  blob.ID(r.U64()),
		Nonce: r.U64(),
		Seq:   r.U32(),
	}
}

func encodeKey(b *wire.Buffer, k blob.BlockKey) {
	b.U64(uint64(k.Blob))
	b.U64(k.Nonce)
	b.U32(k.Seq)
}

func (s *Service) handlePut(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	data := r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := s.store.Put(key.String(), data); err != nil {
		return nil, fmt.Errorf("provider: put %s: %w", key, err)
	}
	s.mPuts.Inc()
	s.mBytesIn.Add(int64(len(data)))
	return nil, nil
}

func (s *Service) handleGet(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	off := r.I64()
	length := r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	data, err := s.store.GetRange(key.String(), off, length)
	if err == store.ErrNotFound {
		return nil, ErrBlockNotFound
	}
	if err != nil {
		return nil, err
	}
	s.mGets.Inc()
	s.mBytesOut.Add(int64(len(data)))
	b := wire.NewBuffer(4 + len(data))
	b.Bytes32(data)
	return b.Bytes(), nil
}

func (s *Service) handleHas(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	b := wire.NewBuffer(1)
	b.Bool(s.store.Has(key.String()))
	return b.Bytes(), nil
}

func (s *Service) handlePutChained(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	chain := r.StringSlice()
	ck := r.Chunk()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A doomed transfer also dooms whatever frames of it already
	// landed: abort the partial upload before erroring out.
	if s.chainBroken.Load() {
		s.failUpload(key.String())
		return nil, rpc.CodedError(CodeChainFail, "provider: chain broken (injected)")
	}
	// The Total cap mirrors plain Put's implicit bound (the whole block
	// travels inside one wire.MaxFrameSize frame there): without it a
	// single tiny frame claiming a huge Total would force an Off-sized
	// allocation or sparse file.
	if ck.Off < 0 || ck.Total <= 0 || ck.Total > wire.MaxFrameSize ||
		ck.Off+int64(len(ck.Data)) > ck.Total {
		s.failUpload(key.String())
		return nil, rpc.CodedError(CodeChainFail,
			fmt.Sprintf("provider: bad chain frame for %s: off %d len %d total %d", key, ck.Off, len(ck.Data), ck.Total))
	}
	if s.writeDoomed(key) {
		return nil, rpc.CodedError(CodeChainFail,
			fmt.Sprintf("provider: write of %s was garbage-collected or failed", key))
	}

	// Forward downstream concurrently with the local write; the frame's
	// ack requires both, so acks propagate back from the chain tail.
	var fwdErr error
	fwdDone := make(chan struct{})
	if len(chain) > 0 {
		go func() {
			defer close(fwdDone)
			// Derive from the handler ctx so the hop inherits the trace
			// context; the inbound ctx carries no cancellation, so the
			// hop timeout is still the only deadline.
			ctx, cancel := context.WithTimeout(ctx, chainHopTimeout)
			defer cancel()
			t0 := time.Now()
			fwdErr = s.fwd.putChainFrame(ctx, chain[0], key, chain[1:], ck)
			s.mHopLatency.ObserveSince(t0)
		}()
	} else {
		close(fwdDone)
	}
	s.mChainFrames.Inc()
	s.mBytesIn.Add(int64(len(ck.Data)))
	err := s.applyFrame(key, ck)
	<-fwdDone
	if err == nil {
		err = fwdErr
	}
	if err == nil {
		// The frame is down locally and on every downstream replica;
		// commit once that holds for the whole block. Gating the commit
		// on the downstream acks (not just local bytes) keeps a hop
		// from publishing a block whose chain failed.
		err = s.finishFrame(key, ck)
	}
	if err != nil {
		s.failUpload(key.String())
		if rpc.CodeOf(err) == CodeChainFail {
			return nil, err // keep the downstream hop's detail
		}
		return nil, rpc.CodedError(CodeChainFail, fmt.Sprintf("provider: chained put %s: %v", key, err))
	}
	return nil, nil
}

// applyFrame writes one frame into the block's in-flight upload,
// creating it on the first-arriving frame (which, with pipelining, need
// not be the first-offset frame) and committing once all bytes landed.
func (s *Service) applyFrame(key blob.BlockKey, ck wire.Chunk) error {
	k := key.String()
	s.mu.Lock()
	u, ok := s.uploads[k]
	if !ok {
		w, err := s.store.PutWriter(k)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		u = &upload{w: w, total: ck.Total}
		u.touch()
		s.uploads[k] = u
		// Arm the reaper for this upload: if its writer dies mid-chain
		// (upstream crash, client gone), the partial value must not pin
		// a buffer or temp file forever — even on an otherwise idle
		// provider.
		time.AfterFunc(uploadTTL, func() { s.reapIfStale(k, u) })
	}
	s.mu.Unlock()

	u.touch()
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case u.failed:
		return errors.New("upload already failed")
	case u.committed:
		return errors.New("frame after commit")
	case u.total != ck.Total:
		return fmt.Errorf("frame total %d does not match upload total %d", ck.Total, u.total)
	}
	if err := u.w.WriteAt(ck.Data, ck.Off); err != nil {
		return err
	}
	u.received += int64(len(ck.Data))
	if u.received > u.total {
		return fmt.Errorf("frames overflow block: %d of %d bytes", u.received, u.total)
	}
	return nil
}

// finishFrame records that one frame is fully replicated (locally
// written and acked by the whole downstream chain) and commits the
// block once every byte is.
func (s *Service) finishFrame(key blob.BlockKey, ck wire.Chunk) error {
	k := key.String()
	s.mu.Lock()
	u := s.uploads[k]
	s.mu.Unlock()
	if u == nil {
		return errors.New("upload vanished before completion")
	}

	u.mu.Lock()
	if u.failed {
		u.mu.Unlock()
		return errors.New("upload already failed")
	}
	u.acked += int64(len(ck.Data))
	complete := u.acked >= u.total
	if complete {
		// Last gate before the block becomes visible: a DeleteWrite
		// that raced in tombstoned the write before touching the store,
		// so re-checking here keeps the commit from resurrecting a
		// garbage-collected block.
		if s.writeDoomed(key) {
			u.mu.Unlock()
			return errors.New("write was garbage-collected or failed")
		}
		if err := u.w.Commit(); err != nil {
			u.mu.Unlock()
			return err
		}
		u.committed = true
		s.mCommits.Inc()
	}
	u.mu.Unlock()

	if complete {
		s.mu.Lock()
		if s.uploads[k] == u {
			delete(s.uploads, k)
		}
		s.mu.Unlock()
	}
	return nil
}

// failUpload aborts and forgets the block's in-flight upload, if any,
// and tombstones the key so sibling frames still in the pipe are
// rejected instead of starting a fresh doomed upload.
func (s *Service) failUpload(k string) {
	s.mu.Lock()
	u := s.uploads[k]
	delete(s.uploads, k)
	now := time.Now()
	for fk, at := range s.failed {
		if now.Sub(at) > 2*uploadTTL {
			delete(s.failed, fk)
		}
	}
	s.failed[k] = now
	s.mu.Unlock()
	if u != nil {
		u.fail()
		s.mFailed.Inc()
	}
}

func (u *upload) fail() {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.committed || u.failed {
		return
	}
	u.failed = true
	u.w.Abort()
}

// reapIfStale aborts the upload if it has gone idle past the TTL, or
// re-arms itself for the remaining time while frames keep arriving
// (long transfers over slow links must not be reaped mid-stream).
func (s *Service) reapIfStale(k string, u *upload) {
	s.mu.Lock()
	if s.uploads[k] != u {
		s.mu.Unlock()
		return // committed or already failed
	}
	idle := u.idle()
	if idle <= uploadTTL {
		s.mu.Unlock()
		time.AfterFunc(uploadTTL-idle, func() { s.reapIfStale(k, u) })
		return
	}
	delete(s.uploads, k)
	s.mu.Unlock()
	u.fail()
	s.mReaps.Inc()
}

func (s *Service) handleDeleteWrite(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	id := blob.ID(r.U64())
	nonce := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	prefix := blob.BlockKey{Blob: id, Nonce: nonce}.WritePrefix()
	// Tombstone the write and abort its in-flight uploads before
	// touching the store, so a chained frame still in the pipe can
	// neither finish an existing upload nor start a fresh one and
	// commit an unreferenced block after the GC.
	s.mu.Lock()
	now := time.Now()
	for p, at := range s.deleted {
		if now.Sub(at) > 2*uploadTTL {
			delete(s.deleted, p)
		}
	}
	s.deleted[prefix] = now
	var doomed []*upload
	for k, u := range s.uploads {
		if strings.HasPrefix(k, prefix) {
			delete(s.uploads, k)
			doomed = append(doomed, u)
		}
	}
	s.mu.Unlock()
	for _, u := range doomed {
		u.fail()
	}
	n, err := s.store.DeletePrefix(prefix)
	if err != nil {
		return nil, err
	}
	b := wire.NewBuffer(4)
	b.U32(uint32(n))
	return b.Bytes(), nil
}

// writeDoomed reports whether the frame's write was recently
// garbage-collected on this provider or its upload already failed.
func (s *Service) writeDoomed(key blob.BlockKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.deleted[key.WritePrefix()]; ok {
		return true
	}
	_, ok := s.failed[key.String()]
	return ok
}

func (s *Service) handleDeleteBlock(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := s.store.Delete(key.String()); err != nil {
		return nil, err
	}
	return nil, nil
}

// handleBlockReport enumerates the block keys this provider holds.
// Keys that do not parse as block keys (foreign entries in a shared
// store) are skipped: the report's consumers reason in BlockKeys.
func (s *Service) handleBlockReport(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	prefix := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if prefix == "" {
		prefix = blob.KeyPrefix
	}
	keys, err := s.store.Keys(prefix)
	if err != nil {
		return nil, err
	}
	parsed := make([]blob.BlockKey, 0, len(keys))
	for _, k := range keys {
		if bk, err := blob.ParseBlockKey(k); err == nil {
			parsed = append(parsed, bk)
		}
	}
	b := wire.NewBuffer(4 + 20*len(parsed))
	b.U32(uint32(len(parsed)))
	for _, bk := range parsed {
		encodeKey(b, bk)
	}
	return b.Bytes(), nil
}

// handleReplicate pushes one locally stored block to the target
// providers, reusing the chained data plane (this provider is the
// chain's client). It is the repair executor's work primitive.
func (s *Service) handleReplicate(ctx context.Context, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	key := decodeKey(r)
	targets := r.StringSlice()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, nil
	}
	data, err := s.store.Get(key.String())
	if err == store.ErrNotFound {
		return nil, ErrBlockNotFound
	}
	if err != nil {
		return nil, err
	}
	s.mReplicas.Inc()
	s.mBytesOut.Add(int64(len(data)))
	// Keep the trace context from the inbound frame on the push.
	ctx, cancel := context.WithTimeout(ctx, chainHopTimeout)
	defer cancel()
	if err := s.fwd.PutChained(ctx, targets, key, data, 0); err != nil {
		if rpc.CodeOf(err) == CodeChainFail {
			return nil, err
		}
		return nil, rpc.CodedError(CodeChainFail, fmt.Sprintf("provider: replicate %s: %v", key, err))
	}
	return nil, nil
}

func (s *Service) handleStat(ctx context.Context, payload []byte) ([]byte, error) {
	st := s.store.Stats()
	b := wire.NewBuffer(16 + 32*len(st.Tiers))
	b.I64(st.Items)
	b.I64(st.Bytes)
	store.EncodeTiers(b, st.Tiers)
	return b.Bytes(), nil
}

// Client talks to data providers. One Client serves calls to any number
// of providers through a shared connection pool.
type Client struct {
	pool *rpc.Pool
}

// NewClient returns a provider client over pool.
func NewClient(pool *rpc.Pool) *Client { return &Client{pool: pool} }

// Put stores one block on the provider at addr.
func (c *Client) Put(ctx context.Context, addr string, key blob.BlockKey, data []byte) error {
	b := wire.NewBuffer(24 + len(data))
	encodeKey(b, key)
	b.Bytes32(data)
	cl, err := c.pool.Get(addr)
	if err != nil {
		return err
	}
	_, err = cl.Call(ctx, mPutBlock, b.Bytes())
	return err
}

// chainWindow is how many frames of one block a client (or forwarding
// hop) keeps in flight: enough to hide per-hop latency without holding
// multiple spare copies of large blocks in transit buffers.
const chainWindow = 4

// PutChained streams one block along a replica chain: the block is cut
// into frames of frameSize (DefaultFrameSize if <= 0) and pipelined to
// addrs[0], which persists them while forwarding to addrs[1:]. The call
// returns once every frame is acked by the whole chain — i.e. all
// replicas hold the block. Any chain failure surfaces as an error with
// code CodeChainFail.
func (c *Client) PutChained(ctx context.Context, addrs []string, key blob.BlockKey, data []byte, frameSize int) error {
	if len(addrs) == 0 {
		return errors.New("provider: empty replica chain")
	}
	if len(data) == 0 {
		return errors.New("provider: empty block")
	}
	if frameSize <= 0 {
		frameSize = DefaultFrameSize
	}
	head, chain := addrs[0], addrs[1:]
	total := int64(len(data))

	// A failed frame cancels the rest immediately: without this, a hung
	// hop would stall every remaining window round for a full timeout
	// each before the caller could fall back.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, chainWindow)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}
	for off := 0; off < len(data) && !failed(); off += frameSize {
		end := off + frameSize
		if end > len(data) {
			end = len(data)
		}
		ck := wire.Chunk{Off: int64(off), Total: total, Data: data[off:end]}
		wg.Add(1)
		sem <- struct{}{}
		go func(ck wire.Chunk) {
			defer func() { <-sem; wg.Done() }()
			if err := c.putChainFrame(ctx, head, key, chain, ck); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				cancel()
			}
		}(ck)
	}
	wg.Wait()
	return first
}

// putChainFrame ships one frame to addr, naming the replicas still
// downstream of it.
func (c *Client) putChainFrame(ctx context.Context, addr string, key blob.BlockKey, chain []string, ck wire.Chunk) error {
	b := wire.NewBuffer(64 + len(ck.Data))
	encodeKey(b, key)
	b.StringSlice(chain)
	b.Chunk(ck)
	cl, err := c.pool.Get(addr)
	if err != nil {
		return err
	}
	_, err = cl.Call(ctx, mPutChained, b.Bytes())
	return err
}

// Get fetches length bytes at off within the block (length < 0 means
// "to the end").
func (c *Client) Get(ctx context.Context, addr string, key blob.BlockKey, off, length int64) ([]byte, error) {
	b := wire.NewBuffer(36)
	encodeKey(b, key)
	b.I64(off)
	b.I64(length)
	cl, err := c.pool.Get(addr)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Call(ctx, mGetBlock, b.Bytes())
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(resp)
	data := r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return data, nil
}

// Has reports whether the provider stores the block.
func (c *Client) Has(ctx context.Context, addr string, key blob.BlockKey) (bool, error) {
	b := wire.NewBuffer(20)
	encodeKey(b, key)
	cl, err := c.pool.Get(addr)
	if err != nil {
		return false, err
	}
	resp, err := cl.Call(ctx, mHasBlock, b.Bytes())
	if err != nil {
		return false, err
	}
	r := wire.NewReader(resp)
	v := r.Bool()
	return v, r.Err()
}

// DeleteWrite garbage-collects every block a write operation stored on
// the provider (identified by blob + nonce), returning the count.
func (c *Client) DeleteWrite(ctx context.Context, addr string, id blob.ID, nonce uint64) (int, error) {
	b := wire.NewBuffer(16)
	b.U64(uint64(id))
	b.U64(nonce)
	cl, err := c.pool.Get(addr)
	if err != nil {
		return 0, err
	}
	resp, err := cl.Call(ctx, mDeleteWrite, b.Bytes())
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(resp)
	n := int(r.U32())
	return n, r.Err()
}

// Delete removes one block (version garbage collection; deleting an
// absent block is not an error).
func (c *Client) Delete(ctx context.Context, addr string, key blob.BlockKey) error {
	b := wire.NewBuffer(20)
	encodeKey(b, key)
	cl, err := c.pool.Get(addr)
	if err != nil {
		return err
	}
	_, err = cl.Call(ctx, mDeleteBlock, b.Bytes())
	return err
}

// BlockReport enumerates the block keys the provider at addr holds
// under prefix ("" reports every block). This is the repair plane's
// inventory call: what a provider *actually* stores, not what was once
// allocated to it.
func (c *Client) BlockReport(ctx context.Context, addr, prefix string) ([]blob.BlockKey, error) {
	b := wire.NewBuffer(8 + len(prefix))
	b.String(prefix)
	cl, err := c.pool.Get(addr)
	if err != nil {
		return nil, err
	}
	resp, err := cl.Call(ctx, mBlockReport, b.Bytes())
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(resp)
	n := r.U32()
	if r.Err() != nil || int(n) > r.Remaining()/20+1 { // each key is 20 bytes
		return nil, fmt.Errorf("provider: malformed block report from %s", addr)
	}
	out := make([]blob.BlockKey, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, decodeKey(r))
	}
	return out, r.Err()
}

// Replicate asks the provider at addr to push its copy of the block to
// the target providers over the chained data plane. The call returns
// once every target holds the block.
func (c *Client) Replicate(ctx context.Context, addr string, key blob.BlockKey, targets []string) error {
	b := wire.NewBuffer(32)
	encodeKey(b, key)
	b.StringSlice(targets)
	cl, err := c.pool.Get(addr)
	if err != nil {
		return err
	}
	_, err = cl.Call(ctx, mReplicate, b.Bytes())
	return err
}

// Stat returns the provider's storage statistics.
func (c *Client) Stat(ctx context.Context, addr string) (store.Stats, error) {
	cl, err := c.pool.Get(addr)
	if err != nil {
		return store.Stats{}, err
	}
	resp, err := cl.Call(ctx, mStat, nil)
	if err != nil {
		return store.Stats{}, err
	}
	r := wire.NewReader(resp)
	st := store.Stats{Items: r.I64(), Bytes: r.I64()}
	st.Tiers = store.DecodeTiers(r)
	return st, r.Err()
}
