package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/mdtree"
	"blobseer/internal/placement"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/vmanager"
)

// These white-box tests run the client against a hand-built in-process
// deployment instead of package cluster (which imports core and would
// cycle). That also lets them wrap the transport and the stores with
// counters — the instruments for byte-accounting and rotation claims.

// countingConn counts bytes the client writes (its egress).
type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// countingStore counts block reads served by one provider.
type countingStore struct {
	store.Store
	gets atomic.Int64
}

func (c *countingStore) GetRange(key string, off, length int64) ([]byte, error) {
	c.gets.Add(1)
	return c.Store.GetRange(key, off, length)
}

type miniDeploy struct {
	net    *rpc.InprocNetwork
	vmAddr string
	pmAddr string
	// meta is the version manager's (repair) view of the metadata
	// store; clientMeta is what clients write through — tests may wrap
	// it with failure injection without breaking abort repair.
	meta       mdtree.Store
	clientMeta mdtree.Store
	provStore  []*countingStore
}

// startMini deploys vmanager + pmanager + nProv providers over an
// inproc network and returns the fabric.
func startMini(t *testing.T, nProv int, meta mdtree.Store) *miniDeploy {
	t.Helper()
	d := &miniDeploy{net: rpc.NewInprocNetwork(), meta: meta, clientMeta: meta}
	serve := func(name string, mux *rpc.Mux) string {
		lis, err := d.net.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(mux)
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		return name
	}
	d.vmAddr = serve("vmanager", vmanager.NewService(vmanager.NewState(vmanager.MetadataRepairer(meta))).Mux())
	pmState := pmanager.NewState(placement.NewRoundRobin())
	d.pmAddr = serve("pmanager", pmanager.NewService(pmState).Mux())

	// Providers forward over their own pool, so the client pool's
	// byte counters see client traffic only.
	provPool := rpc.NewPool(d.net.Dial)
	t.Cleanup(provPool.Close)
	for i := 0; i < nProv; i++ {
		cs := &countingStore{Store: store.NewMemStore()}
		d.provStore = append(d.provStore, cs)
		addr := serve(fmt.Sprintf("provider-%d", i), provider.NewService(cs, provPool).Mux())
		pmState.Register(addr, fmt.Sprintf("host-%d", i))
	}
	return d
}

// newClient returns a core client whose egress bytes accumulate in the
// returned counter.
func (d *miniDeploy) newClient(t *testing.T) (*Client, *atomic.Int64) {
	t.Helper()
	sent := new(atomic.Int64)
	pool := rpc.NewPool(func(addr string) (net.Conn, error) {
		conn, err := d.net.Dial(addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, sent: sent}, nil
	})
	t.Cleanup(pool.Close)
	return NewClient(Config{
		Pool:      pool,
		VMAddr:    d.vmAddr,
		PMAddr:    d.pmAddr,
		MetaStore: d.clientMeta,
	}), sent
}

// TestChainedWriteClientEgressBytes pins the chain's claim on the real
// client stack: a write of N blocks at replication R costs the client
// ~N blocks of uplink, not the R×N a client-side fan-out would pay.
func TestChainedWriteClientEgressBytes(t *testing.T) {
	const (
		blockSize = int64(64 * 1024)
		nBlocks   = 4
		repl      = 3
	)
	payloadBytes := int64(nBlocks) * blockSize

	d := startMini(t, 4, mdtree.NewMemStore())
	c, sent := d.newClient(t)
	ctx := context.Background()
	m, err := c.Create(ctx, blockSize, repl)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, int(payloadBytes))
	v, err := c.Append(ctx, m.ID, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The data must actually be replicated and readable.
	got, err := c.Read(ctx, m.ID, v, 0, payloadBytes)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back: %v", err)
	}
	var replicas int64
	for _, cs := range d.provStore {
		replicas += cs.Stats().Items
	}
	if replicas != nBlocks*repl {
		t.Errorf("providers hold %d block replicas, want %d", replicas, nBlocks*repl)
	}

	// One copy of the payload plus protocol overhead. The read and
	// control RPCs ride the same counter, so allow generous slack —
	// generous is still far below a second payload copy.
	egress := sent.Load()
	slack := payloadBytes / 2
	if egress < payloadBytes || egress > payloadBytes+slack {
		t.Errorf("client egress = %d, want ~%d (+%d slack)", egress, payloadBytes, slack)
	}
	t.Logf("client egress: %d bytes (payload %d, R=%d)", egress, payloadBytes, repl)
}

// TestChainedReplicasHoldIdenticalBlocks verifies every replica in the
// chain ends up with byte-identical committed blocks.
func TestChainedReplicasHoldIdenticalBlocks(t *testing.T) {
	const blockSize = int64(8 * 1024)
	d := startMini(t, 3, mdtree.NewMemStore())
	c, _ := d.newClient(t)
	ctx := context.Background()
	m, err := c.Create(ctx, blockSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, int(4*blockSize))
	if _, err := c.Append(ctx, m.ID, payload); err != nil {
		t.Fatal(err)
	}
	for i, cs := range d.provStore {
		st := cs.Stats()
		if st.Items != 4 || st.Bytes != 4*blockSize {
			t.Errorf("provider %d stats = %+v, want 4 items / %d bytes", i, st, 4*blockSize)
		}
	}
}

// TestReadRotationSpreadsAcrossReplicas pins that repeated reads of the
// same block do not serialize on the first replica address.
func TestReadRotationSpreadsAcrossReplicas(t *testing.T) {
	const blockSize = int64(4 * 1024)
	d := startMini(t, 2, mdtree.NewMemStore())
	c, _ := d.newClient(t)
	ctx := context.Background()
	m, err := c.Create(ctx, blockSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Append(ctx, m.ID, make([]byte, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Read(ctx, m.ID, v, 0, blockSize); err != nil {
			t.Fatal(err)
		}
	}
	a, b := d.provStore[0].gets.Load(), d.provStore[1].gets.Load()
	if a == 0 || b == 0 {
		t.Errorf("8 reads of a 2-replica block hit providers %d/%d times; rotation should spread them", a, b)
	}
}

// failingMetaStore fails every Put while broken — the injection for
// metadata-build failure mid-write.
type failingMetaStore struct {
	*mdtree.MemStore
	broken atomic.Bool
}

func (f *failingMetaStore) Put(ctx context.Context, n mdtree.Node) error {
	if f.broken.Load() {
		return errors.New("injected metadata failure")
	}
	return f.MemStore.Put(ctx, n)
}

func (f *failingMetaStore) PutBatch(ctx context.Context, nodes []mdtree.Node) error {
	if f.broken.Load() {
		return errors.New("injected metadata failure")
	}
	return f.MemStore.PutBatch(ctx, nodes)
}

// TestFailedWriteAbortsAssignedVersion pins the version-leak fix: when
// a write dies after AssignVersion, doWrite must abort the version so
// the publication line is repaired immediately — a later write must
// publish without waiting for any janitor.
func TestFailedWriteAbortsAssignedVersion(t *testing.T) {
	const blockSize = int64(4 * 1024)
	inner := mdtree.NewMemStore()
	meta := &failingMetaStore{MemStore: inner}
	d := startMini(t, 2, inner) // the VM repairs through the healthy view
	d.clientMeta = meta
	c, _ := d.newClient(t)
	ctx := context.Background()
	m, err := c.Create(ctx, blockSize, 1)
	if err != nil {
		t.Fatal(err)
	}

	meta.broken.Store(true)
	if _, err := c.Append(ctx, m.ID, make([]byte, blockSize)); err == nil {
		t.Fatal("write with broken metadata store succeeded")
	}
	meta.broken.Store(false)

	// No deployment janitor runs here: only doWrite's own abort can
	// have repaired the line, so this publishes (or the test hangs on
	// the stalled version and times out below).
	v, err := c.Append(ctx, m.ID, make([]byte, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.WaitPublished(ctx, m.ID, v, 2*time.Second); err != nil {
		t.Fatalf("version after failed write never published: %v", err)
	}
	// The failed write's blocks were garbage collected.
	var items int64
	for _, cs := range d.provStore {
		items += cs.Stats().Items
	}
	if items != 1 {
		t.Errorf("%d blocks on providers, want 1 (failed write's orphans GC'd)", items)
	}
}

// TestChainOrderLeadsWithLocalProvider pins the chain-head choice: the
// provider co-hosted with the client must lead the chain.
func TestChainOrderLeadsWithLocalProvider(t *testing.T) {
	d := startMini(t, 3, mdtree.NewMemStore())
	pool := rpc.NewPool(d.net.Dial)
	t.Cleanup(pool.Close)
	c := NewClient(Config{
		Pool: pool, VMAddr: d.vmAddr, PMAddr: d.pmAddr,
		MetaStore: d.meta, Host: "host-1",
	})
	ctx := context.Background()
	got := c.chainOrder(ctx, []string{"provider-0", "provider-1", "provider-2"})
	want := []string{"provider-1", "provider-0", "provider-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chainOrder = %v, want %v", got, want)
		}
	}
	// No co-hosted provider: order untouched.
	c2 := NewClient(Config{
		Pool: pool, VMAddr: d.vmAddr, PMAddr: d.pmAddr,
		MetaStore: d.meta, Host: "elsewhere",
	})
	got = c2.chainOrder(ctx, []string{"provider-2", "provider-0"})
	if got[0] != "provider-2" || got[1] != "provider-0" {
		t.Fatalf("chainOrder without local replica = %v", got)
	}
}
