package core_test

import (
	"bytes"
	"context"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/cluster"
	"blobseer/internal/mdtree"
	"blobseer/internal/util"
)

// TestReadFailsOverToReplica exercises Section VI-B's replication: with
// replication 2, losing the primary copy of every block (simulated by
// deleting the payloads from the primary provider's store) leaves all
// data readable through the surviving replicas.
func TestReadFailsOverToReplica(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     block,
		Replication:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, int(6*block))
	v, err := c.Append(ctx, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Every block must be on two distinct providers.
	extents, err := mdtree.Resolve(ctx, cl.MetaStore, m, v, int64(len(payload)),
		blob.Range{Off: 0, Len: int64(len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range extents {
		if len(e.Block.Providers) != 2 {
			t.Fatalf("block %s has %d replicas, want 2", e.Block.Key, len(e.Block.Providers))
		}
		if e.Block.Providers[0] == e.Block.Providers[1] {
			t.Fatalf("block %s replicated onto the same provider", e.Block.Key)
		}
	}

	// Kill exactly the primary copy of every block (replica copies that
	// happen to live on the same providers stay).
	for _, e := range extents {
		st := cl.ProviderService(e.Block.Providers[0]).Store()
		if err := st.Delete(e.Block.Key.String()); err != nil {
			t.Fatal(err)
		}
	}

	got, err := c.Read(ctx, m.ID, v, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read after primary loss: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failover read returned wrong bytes")
	}
}

// TestBrokenChainFailsWriteWhole: a replica chain that breaks mid-write
// fails the write as a whole — the paper's rule, with no client-side
// fallback. No version is published, and the write's blocks are
// garbage-collected from every provider, including the ones whose
// chains did complete.
func TestBrokenChainFailsWriteWhole(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     block,
		Replication:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()

	// One provider refuses chained frames: with round-robin placement
	// some blocks' chains cross it and fail, the others complete.
	cl.ProviderService(cl.ProviderAddrs[1]).BreakChain(true)

	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, m.ID, bytes.Repeat([]byte{0x77}, int(6*block))); err == nil {
		t.Fatal("append through a broken chain succeeded")
	}
	if v, size, err := c.Latest(ctx, m.ID); err != nil || v != blob.NoVersion || size != 0 {
		t.Errorf("after failed append: Latest = (v%d, %d bytes, %v), want no version", v, size, err)
	}
	for _, addr := range cl.ProviderAddrs {
		if n := cl.ProviderService(addr).Store().Stats().Items; n != 0 {
			t.Errorf("provider %s holds %d blocks after the failed write, want 0", addr, n)
		}
	}
}

// TestWriteAfterChainHealsReplicatesFully: the client keeps no memory of
// a chain that broke. Once the provider forwards again, the same client
// writes through it, and every block lands on its full replica set.
func TestWriteAfterChainHealsReplicatesFully(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		MetaProviders: 2,
		BlockSize:     block,
		Replication:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()

	broken := cl.ProviderService(cl.ProviderAddrs[1])
	broken.BreakChain(true)
	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, m.ID, bytes.Repeat([]byte{0x11}, int(6*block))); err == nil {
		t.Fatal("append through a broken chain succeeded")
	}

	broken.BreakChain(false)
	payload := bytes.Repeat([]byte{0x22}, int(6*block))
	v, err := c.Append(ctx, m.ID, payload)
	if err != nil {
		t.Fatalf("append after the chain healed: %v", err)
	}
	extents, err := mdtree.Resolve(ctx, cl.MetaStore, m, v, int64(len(payload)),
		blob.Range{Off: 0, Len: int64(len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range extents {
		if len(e.Block.Providers) != 2 {
			t.Fatalf("block %s has %d replicas, want 2", e.Block.Key, len(e.Block.Providers))
		}
	}
	stored := int64(0)
	for _, addr := range cl.ProviderAddrs {
		stored += cl.ProviderService(addr).Store().Stats().Items
	}
	if want := int64(2 * len(extents)); stored != want {
		t.Errorf("providers hold %d blocks, want %d (the healed write's replicas only)", stored, want)
	}
	got, err := c.Read(ctx, m.ID, v, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read after the chain healed returned wrong bytes")
	}
}

// TestReadRotationSurvivesAlternatingLoss: with replication 2 and the
// surviving copy alternating between the two replicas block by block,
// every rotation position must fail over to whichever replica still
// holds the block.
func TestReadRotationSurvivesAlternatingLoss(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     block,
		Replication:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xCD}, int(8*block))
	v, err := c.Append(ctx, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	extents, err := mdtree.Resolve(ctx, cl.MetaStore, m, v, int64(len(payload)),
		blob.Range{Off: 0, Len: int64(len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range extents {
		st := cl.ProviderService(e.Block.Providers[i%2]).Store()
		if err := st.Delete(e.Block.Key.String()); err != nil {
			t.Fatal(err)
		}
	}
	// Repeat the read so the rotation counter cycles through both
	// starting positions for every block.
	for i := 0; i < 4; i++ {
		got, err := c.Read(ctx, m.ID, v, 0, int64(len(payload)))
		if err != nil {
			t.Fatalf("read %d after alternating loss: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
}

// TestReadFailsWhenAllReplicasLost: with every copy gone, the read
// reports the failure instead of fabricating zeros.
func TestReadFailsWhenAllReplicasLost(t *testing.T) {
	const block = int64(4 * util.KB)
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 3,
		BlockSize:     block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx := context.Background()
	c := cl.NewClient("")
	m, err := c.Create(ctx, block, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Append(ctx, m.ID, bytes.Repeat([]byte{1}, int(2*block)))
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range cl.ProviderAddrs {
		if _, err := cl.ProviderService(addr).Store().DeletePrefix(""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read(ctx, m.ID, v, 0, 2*block); err == nil {
		t.Fatal("read with all replicas lost should fail")
	}
}
