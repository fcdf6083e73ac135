package provider

import (
	"bytes"
	"context"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/wire"
)

// chainCluster starts n providers on one inproc network, forwarding
// chain frames to each other.
func chainCluster(t *testing.T, n int) (*Client, []string, []*Service) {
	t.Helper()
	net := rpc.NewInprocNetwork()
	pool := rpc.NewPool(net.Dial)
	t.Cleanup(pool.Close)
	addrs := make([]string, n)
	svcs := make([]*Service, n)
	for i := 0; i < n; i++ {
		addrs[i] = string(rune('a'+i)) + "-provider"
		svcs[i] = NewService(store.NewMemStore(), pool)
		lis, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(svcs[i].Mux())
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
	}
	return NewClient(pool), addrs, svcs
}

func TestPutChainedReachesAllReplicas(t *testing.T) {
	c, addrs, svcs := chainCluster(t, 3)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 1, Nonce: 0xc4a1, Seq: 0}
	data := bytes.Repeat([]byte("streamed-block-"), 700) // 10500 bytes, many frames

	if err := c.PutChained(ctx, addrs, key, data, 1024); err != nil {
		t.Fatal(err)
	}
	for i, svc := range svcs {
		got, err := svc.Store().Get(key.String())
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("replica %d holds wrong bytes (%d vs %d)", i, len(got), len(data))
		}
	}
	// The block reads back through the ordinary path too.
	got, err := c.Get(ctx, addrs[2], key, 0, -1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tail read = %d bytes, %v", len(got), err)
	}
}

func TestPutChainedSingleReplicaNeedsNoForwarder(t *testing.T) {
	// A chain of one (replication 1) is a plain streaming put: the
	// provider stores it without forwarding anything.
	net := rpc.NewInprocNetwork()
	pool := rpc.NewPool(net.Dial)
	defer pool.Close()
	svc := NewService(store.NewMemStore(), pool)
	lis, err := net.Listen("solo")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	defer srv.Close()

	c := NewClient(pool)
	key := blob.BlockKey{Blob: 2, Nonce: 1, Seq: 0}
	data := []byte("single replica payload")
	if err := c.PutChained(context.Background(), []string{"solo"}, key, data, 8); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Store().Get(key.String())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stored = %q, %v", got, err)
	}
}

func TestPutChainedMidChainFailurePropagates(t *testing.T) {
	c, addrs, svcs := chainCluster(t, 3)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 3, Nonce: 7, Seq: 0}
	data := bytes.Repeat([]byte{0xEE}, 4096)

	// An unreachable middle hop: the head's forward fails, the error
	// travels back as CodeChainFail, and the head aborts its partial
	// upload so no half-written block becomes visible.
	chain := []string{addrs[0], "nowhere", addrs[2]}
	err := c.PutChained(ctx, chain, key, data, 1024)
	if err == nil {
		t.Fatal("chained put through unreachable hop succeeded")
	}
	if rpc.CodeOf(err) != CodeChainFail {
		t.Errorf("error code = %d, want CodeChainFail", rpc.CodeOf(err))
	}
	for i, svc := range svcs {
		if svc.Store().Has(key.String()) {
			t.Errorf("replica %d committed a block from a failed chain", i)
		}
		if st := svc.Store().Stats(); st.Items != 0 {
			t.Errorf("replica %d leaked %d items", i, st.Items)
		}
	}
	// The head's upload table must not leak the aborted transfer. The
	// client cancels its remaining frames on the first error, so
	// abandoned handlers may still be mid-abort briefly — poll.
	deadline := time.Now().Add(2 * time.Second)
	for {
		svcs[0].mu.Lock()
		n := len(svcs[0].uploads)
		svcs[0].mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d dangling uploads after failed chain", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBreakChainInjection(t *testing.T) {
	c, addrs, svcs := chainCluster(t, 2)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 5, Nonce: 9, Seq: 0}

	svcs[1].BreakChain(true)
	err := c.PutChained(ctx, addrs, key, []byte("payload"), 0)
	if err == nil || rpc.CodeOf(err) != CodeChainFail {
		t.Fatalf("broken tail: err = %v, want CodeChainFail", err)
	}
	// Commits are gated on downstream acks: the head must not have
	// published a block whose tail never stored it.
	if svcs[0].Store().Has(key.String()) {
		t.Fatal("head committed a block its broken tail never acked")
	}
	// Plain puts are unaffected — that is what the fallback relies on.
	if err := c.Put(ctx, addrs[1], key, []byte("payload")); err != nil {
		t.Fatalf("plain put to chain-broken provider: %v", err)
	}
	// After unbreaking, a fresh write (fresh nonce, as real clients
	// always use) chains normally; the failed key stays tombstoned.
	svcs[1].BreakChain(false)
	fresh := blob.BlockKey{Blob: 5, Nonce: 10, Seq: 0}
	if err := c.PutChained(ctx, addrs, fresh, []byte("payload"), 0); err != nil {
		t.Fatalf("chain after unbreak: %v", err)
	}
}

func TestPutChainedConcurrentBlocks(t *testing.T) {
	// Many blocks streaming down overlapping chains concurrently: the
	// per-key upload tracking must not mix frames across blocks.
	c, addrs, svcs := chainCluster(t, 3)
	ctx := context.Background()
	const blocks = 16
	errs := make(chan error, blocks)
	for i := 0; i < blocks; i++ {
		go func(i int) {
			key := blob.BlockKey{Blob: 9, Nonce: 0xbeef, Seq: uint32(i)}
			data := bytes.Repeat([]byte{byte(i)}, 3000+i)
			if err := c.PutChained(ctx, addrs, key, data, 512); err != nil {
				errs <- err
				return
			}
			for _, svc := range svcs {
				got, err := svc.Store().Get(key.String())
				if err != nil || !bytes.Equal(got, data) {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < blocks; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeleteWriteTombstonesInFlightChains(t *testing.T) {
	c, addrs, svcs := chainCluster(t, 2)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 6, Nonce: 0xdead, Seq: 0}
	data := bytes.Repeat([]byte{1}, 4096)

	// Deliver part of the block, then GC the write (as a client whose
	// write failed does), then let a straggler frame arrive: it must
	// not resurrect the block.
	head := svcs[0]
	if err := head.applyFrame(key, chunkOf(data, 0, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteWrite(ctx, addrs[0], key.Blob, key.Nonce); err != nil {
		t.Fatal(err)
	}
	err := c.PutChained(ctx, addrs[:1], key, data, 0)
	if err == nil || rpc.CodeOf(err) != CodeChainFail {
		t.Fatalf("straggler frame after DeleteWrite: err = %v, want CodeChainFail", err)
	}
	if head.Store().Has(key.String()) {
		t.Fatal("garbage-collected write resurrected by straggler chain frame")
	}
	// A fresh write (new nonce) is unaffected.
	fresh := blob.BlockKey{Blob: 6, Nonce: 0xbeef, Seq: 0}
	if err := c.PutChained(ctx, addrs, fresh, data, 0); err != nil {
		t.Fatal(err)
	}
}

// chunkOf builds one frame of data for white-box handler tests.
func chunkOf(data []byte, off, end int) wire.Chunk {
	return wire.Chunk{Off: int64(off), Total: int64(len(data)), Data: data[off:end]}
}

func TestChainFrameRejectsAbsurdTotal(t *testing.T) {
	// A tiny frame claiming a huge Total must be refused before any
	// allocation, mirroring wire.MaxFrameSize's corrupt-peer bound.
	svc := NewService(store.NewMemStore(), nil)
	for _, total := range []int64{1<<40 + 1, int64(wire.MaxFrameSize) + 1} {
		b := wire.NewBuffer(64)
		encodeKey(b, blob.BlockKey{Blob: 7, Nonce: 1})
		b.StringSlice(nil)
		b.Chunk(wire.Chunk{Off: total - 1, Total: total, Data: []byte{1}})
		if _, err := svc.handlePutChained(context.Background(), b.Bytes()); err == nil {
			t.Fatalf("frame with total %d accepted", total)
		}
	}
	if st := svc.Store().Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Errorf("rejected frames left state: %+v", st)
	}
}
