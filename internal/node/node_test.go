package node

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/namespace"
	"blobseer/internal/rpc"
)

// startTCP runs one node the way cmd/blobseerd does: on its own
// loopback TCP listener (addr "" picks a port) with its own pool.
func startTCP(t *testing.T, addr string, cfg Config) *Node {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cfg.Pool = rpc.NewPool(rpc.TCPDialer)
	t.Cleanup(cfg.Pool.Close)
	if cfg.Role != Repair {
		lis, err := rpc.ListenTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Listener = lis
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

// TestDeploymentSurvivesControlPlaneRestart runs the production
// topology — every BlobSeer role a separate node on loopback TCP with
// a durable control plane — writes a file through BSFS, restarts the
// version manager and the namespace from their logs on the same
// addresses, and reads the file back byte for byte.
func TestDeploymentSurvivesControlPlaneRestart(t *testing.T) {
	dataDir := t.TempDir()
	m0 := startTCP(t, "", Config{Role: Meta})
	m1 := startTCP(t, "", Config{Role: Meta})
	metas := []string{m0.Addr, m1.Addr}
	vmCfg := Config{Role: VManager, MetaAddrs: metas, MetaReplication: 2, DataDir: dataDir}
	vm := startTCP(t, "", vmCfg)
	pm := startTCP(t, "", Config{Role: PManager})
	nsCfg := Config{Role: Namespace, VMAddrs: []string{vm.Addr}, DataDir: dataDir}
	ns := startTCP(t, "", nsCfg)
	for _, host := range []string{"host-0", "host-1"} {
		startTCP(t, "", Config{Role: Provider, PMAddr: pm.Addr, Host: host})
	}
	startTCP(t, "", Config{Role: Repair, VMAddrs: []string{vm.Addr}, PMAddr: pm.Addr, MetaAddrs: metas, MetaReplication: 2})

	pool := rpc.NewPool(rpc.TCPDialer)
	t.Cleanup(pool.Close)
	fsys, err := bsfs.New(bsfs.Config{
		Core: core.NewClient(core.Config{
			Pool:      pool,
			VMAddrs:   []string{vm.Addr},
			PMAddr:    pm.Addr,
			MetaStore: mdtree.NewDHTStore(dht.NewClient(dht.NewRing(metas, dht.DefaultVnodes), pool, 2)),
		}),
		NS:          namespace.NewClient(pool, ns.Addr),
		BlockSize:   16 << 10,
		Replication: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100<<10+123) // several blocks, unaligned tail
	rand.New(rand.NewSource(1)).Read(payload)
	ctx := context.Background()
	w, err := fsys.Create(ctx, "/data/input", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	readBack := func(when string) {
		t.Helper()
		r, err := fsys.Open(ctx, "/data/input")
		if err != nil {
			t.Fatalf("%s: open: %v", when, err)
		}
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: read %d bytes (%v), want the %d written", when, len(got), err, len(payload))
		}
	}
	readBack("before restart")

	vm.Stop()
	ns.Stop()
	startTCP(t, vm.Addr, vmCfg)
	startTCP(t, ns.Addr, nsCfg)
	readBack("after restart")

	// The recovered control plane keeps accepting writes.
	if err := fsys.Mkdirs(ctx, "/after"); err != nil {
		t.Fatalf("mkdir after restart: %v", err)
	}
}
