package provider

import (
	"context"
	"errors"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
)

func startProvider(t *testing.T) (*Client, string, *Service) {
	t.Helper()
	n := rpc.NewInprocNetwork()
	pool := rpc.NewPool(n.Dial)
	t.Cleanup(pool.Close)
	svc := NewService(store.NewMemStore(), pool)
	lis, err := n.Listen("provider-1")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(svc.Mux())
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return NewClient(pool), "provider-1", svc
}

func TestPutGetBlock(t *testing.T) {
	c, addr, _ := startProvider(t)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 1, Nonce: 0xabc, Seq: 0}
	data := []byte("block contents here")

	if err := c.Put(ctx, addr, key, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, addr, key, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("Get = %q", got)
	}
}

func TestGetSubRange(t *testing.T) {
	// Fine-grain access (Section III-C: unaligned extremal blocks are
	// fetched partially).
	c, addr, _ := startProvider(t)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 1, Nonce: 1, Seq: 2}
	if err := c.Put(ctx, addr, key, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, addr, key, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "456" {
		t.Errorf("subrange = %q", got)
	}
}

func TestGetMissingBlock(t *testing.T) {
	c, addr, _ := startProvider(t)
	_, err := c.Get(context.Background(), addr, blob.BlockKey{Blob: 9}, 0, -1)
	if err == nil {
		t.Fatal("missing block read succeeded")
	}
	if rpc.CodeOf(err) != CodeNotFound {
		t.Errorf("code = %d, want CodeNotFound", rpc.CodeOf(err))
	}
}

func TestHasBlock(t *testing.T) {
	c, addr, _ := startProvider(t)
	ctx := context.Background()
	key := blob.BlockKey{Blob: 2, Nonce: 5, Seq: 0}
	ok, err := c.Has(ctx, addr, key)
	if err != nil || ok {
		t.Fatalf("Has before put = %v, %v", ok, err)
	}
	c.Put(ctx, addr, key, []byte("x"))
	ok, err = c.Has(ctx, addr, key)
	if err != nil || !ok {
		t.Fatalf("Has after put = %v, %v", ok, err)
	}
}

func TestDeleteWriteGC(t *testing.T) {
	c, addr, svc := startProvider(t)
	ctx := context.Background()
	// Two writes (nonces) on the same blob, plus one on another blob.
	for seq := uint32(0); seq < 3; seq++ {
		c.Put(ctx, addr, blob.BlockKey{Blob: 1, Nonce: 0xaa, Seq: seq}, []byte("a"))
	}
	c.Put(ctx, addr, blob.BlockKey{Blob: 1, Nonce: 0xbb, Seq: 0}, []byte("b"))
	c.Put(ctx, addr, blob.BlockKey{Blob: 2, Nonce: 0xaa, Seq: 0}, []byte("c"))

	n, err := c.DeleteWrite(ctx, addr, 1, 0xaa)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("deleted %d, want 3", n)
	}
	if st := svc.Store().Stats(); st.Items != 2 {
		t.Errorf("remaining items = %d, want 2", st.Items)
	}
	// Nonce prefix must not collide: 0xa must not match 0xaa keys.
	c.Put(ctx, addr, blob.BlockKey{Blob: 3, Nonce: 0xaa, Seq: 0}, []byte("d"))
	n, err = c.DeleteWrite(ctx, addr, 3, 0xa)
	if err != nil || n != 0 {
		t.Errorf("prefix collision: deleted %d (err %v), want 0", n, err)
	}
}

func TestStat(t *testing.T) {
	c, addr, _ := startProvider(t)
	ctx := context.Background()
	c.Put(ctx, addr, blob.BlockKey{Blob: 1, Nonce: 1, Seq: 0}, make([]byte, 1000))
	st, err := c.Stat(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 1 || st.Bytes != 1000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDialFailure(t *testing.T) {
	pool := rpc.NewPool(rpc.NewInprocNetwork().Dial)
	defer pool.Close()
	c := NewClient(pool)
	if err := c.Put(context.Background(), "nowhere", blob.BlockKey{}, nil); err == nil {
		t.Fatal("put to unreachable provider succeeded")
	}
	var re *rpc.RemoteError
	if errors.As(errors.New("x"), &re) {
		t.Fatal("sanity")
	}
}
