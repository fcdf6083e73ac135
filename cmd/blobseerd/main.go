// Command blobseerd launches one BlobSeer (or baseline HDFS) daemon on
// a TCP endpoint. A full deployment is a set of blobseerd processes,
// one per role — exactly the process inventory of the paper's Figure 2:
//
//	blobseerd -role meta      -listen 127.0.0.1:7101
//	blobseerd -role meta      -listen 127.0.0.1:7102
//	blobseerd -role vmanager  -listen 127.0.0.1:7001 -meta 127.0.0.1:7101,127.0.0.1:7102
//	blobseerd -role pmanager  -listen 127.0.0.1:7002 -strategy roundrobin
//	blobseerd -role namespace -listen 127.0.0.1:7003 -vmanager 127.0.0.1:7001
//	blobseerd -role provider  -listen 127.0.0.1:7201 -pmanager 127.0.0.1:7002 -host host-0
//	blobseerd -role provider  -listen 127.0.0.1:7202 -pmanager 127.0.0.1:7002 -host host-1
//
// The version manager can be sharded K ways: start K vmanager daemons,
// each with -shard k/K (shard k then owns the blob IDs congruent to k
// mod K and keeps its own WAL), and hand every consumer the full
// comma-separated shard list in shard order:
//
//	blobseerd -role vmanager  -listen 127.0.0.1:7001 -shard 0/2 -meta ...
//	blobseerd -role vmanager  -listen 127.0.0.1:7011 -shard 1/2 -meta ...
//	blobseerd -role namespace -listen 127.0.0.1:7003 -vmanager 127.0.0.1:7001,127.0.0.1:7011
//
// The self-healing plane adds two moving parts: providers heartbeat
// their store statistics to the provider manager (-heartbeat), which
// expires silent ones (-expire-after), and a repair daemon restores
// replication after provider loss:
//
//	blobseerd -role pmanager -listen 127.0.0.1:7002 -expire-after 15s
//	blobseerd -role repair   -vmanager 127.0.0.1:7001 -pmanager 127.0.0.1:7002 \
//	          -meta 127.0.0.1:7101,127.0.0.1:7102 -repair-interval 30s
//
// The baseline file system uses the namenode/datanode roles instead:
//
//	blobseerd -role namenode -listen 127.0.0.1:8001 -block-size 67108864
//	blobseerd -role datanode -listen 127.0.0.1:8201 -namenode 127.0.0.1:8001 -host host-0
//
// Block payloads live in memory by default; pass -store to select any
// backend by URL — "file:///var/blocks?sync=1" for a file-backed store,
// "http://peer:9000/base" for a remote object server, or
// "tiered://?hot=mem://&cold=file:///var/blocks" for the hot/cold
// tiered engine (see the store package for the policy knobs).
// The control-plane daemons (vmanager, namespace) are volatile by
// default; pass -data-dir to journal every mutation to a write-ahead
// log and recover the state on restart (-wal-sync trades durability for
// throughput by batching fsyncs). SIGTERM stops the daemon gracefully:
// connections are cut and in-flight requests drained before the log is
// flushed and closed.
//
// This command only parses flags and waits for a signal: the daemon
// itself is assembled by internal/node, the same code the in-process
// cluster of the tests and benchmarks runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blobseer/internal/metrics"
	"blobseer/internal/node"
	"blobseer/internal/placement"
	"blobseer/internal/rpc"
	"blobseer/internal/trace"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

func main() {
	var (
		role     = flag.String("role", "", "daemon role: vmanager | pmanager | provider | meta | namespace | repair | namenode | datanode")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		metas    = flag.String("meta", "", "comma-separated metadata provider addresses (vmanager: abort repair; required for -role vmanager unless -no-repair)")
		metaRepl = flag.Int("meta-replication", 1, "DHT replication level (vmanager repair path)")
		metaCach = flag.Int("meta-cache", 0, "vmanager: immutable-node cache entries for the repair store (<0 default, 0 off)")
		noRepair = flag.Bool("no-repair", false, "vmanager: disable metadata abort repair")
		shard    = flag.String("shard", "", "vmanager: shard identity k/K (e.g. 0/4); empty = unsharded")
		vmAddr   = flag.String("vmanager", "", "version manager address, comma-separated shard list when sharded (namespace/repair roles)")
		pmAddr   = flag.String("pmanager", "", "provider manager address (provider role; registers at startup)")
		nnAddr   = flag.String("namenode", "", "namenode address (datanode role; registers at startup)")
		host     = flag.String("host", "", "physical host label exposed for affinity scheduling (provider/datanode)")
		storeURL = flag.String("store", "", "block-store backend URL: mem:// | file:///path?sync=1 | http://peer/base | tiered://?hot=...&cold=... (default: mem://)")
		strategy = flag.String("strategy", "roundrobin", "placement strategy: roundrobin | random | sticky | leastloaded (pmanager/namenode)")
		seed     = flag.Uint64("seed", 1, "placement RNG seed (random/sticky)")
		stickyW  = flag.Int("sticky-window", 8, "sticky placement window (namenode's HDFS-0.20-like clustering)")
		blockSz  = flag.Int64("block-size", 64*util.MB, "chunk size in bytes (namenode)")
		wtimeout = flag.Duration("write-timeout", 0, "vmanager: abort writers silent for this long (0 disables the janitor)")
		dataDir  = flag.String("data-dir", "", "vmanager/namespace: WAL directory for crash-durable state (default: volatile)")
		walSync  = flag.Duration("wal-sync", 0, "vmanager/namespace: fsync the WAL at this interval instead of per record (0 = every record)")
		hbEvery  = flag.Duration("heartbeat", 5*time.Second, "provider: heartbeat interval to the provider manager (0 disables)")
		expire   = flag.Duration("expire-after", 0, "pmanager: mark providers silent this long dead (0 disables the liveness loop)")
		repEvery = flag.Duration("repair-interval", 30*time.Second, "repair: scan-and-repair period")
		repConc  = flag.Int("repair-concurrency", 0, "repair: parallel block repairs (0 = default)")
		metAddr  = flag.String("metrics-addr", "", "HTTP address serving this daemon's /metrics and /trace (\"127.0.0.1:0\" picks a port; empty disables)")
		trSample = flag.Float64("trace-sample", 0, "probability [0,1] that a request with no inbound trace context starts a sampled trace")
		trSlow   = flag.Duration("trace-slow", 0, "force-sample any root operation slower than this (0 disables slow-root capture)")
		trBuf    = flag.Int("trace-buf", 0, "per-daemon span ring capacity (0 = default)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("blobseerd: ")

	if *role == "" {
		fmt.Fprintln(os.Stderr, "blobseerd: -role is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg := node.Config{
		Role:              node.Role(*role),
		Pool:              rpc.NewPool(rpc.TCPDialer),
		MetaAddrs:         splitAddrs(*metas),
		MetaReplication:   *metaRepl,
		MetaCacheSize:     *metaCach,
		VMAddrs:           splitAddrs(*vmAddr),
		PMAddr:            *pmAddr,
		NNAddr:            *nnAddr,
		Host:              *host,
		StoreURL:          *storeURL,
		Strategy:          newStrategy(*strategy, *seed, *stickyW),
		BlockSize:         *blockSz,
		Shard:             parseShard(*shard),
		WriteTimeout:      *wtimeout,
		DataDir:           *dataDir,
		WALSyncInterval:   *walSync,
		HeartbeatInterval: *hbEvery,
		ExpireAfter:       *expire,
		RepairInterval:    *repEvery,
		RepairConcurrency: *repConc,
	}
	switch cfg.Role {
	case node.VManager:
		if *noRepair {
			cfg.MetaAddrs = nil
		} else if len(cfg.MetaAddrs) == 0 {
			log.Fatal("vmanager: -meta is required (or pass -no-repair)")
		}
	case node.Repair:
		if *repEvery <= 0 {
			log.Fatal("repair: -repair-interval must be positive")
		}
	}
	// The tracer is this daemon's span recorder. Rate 0 (the default)
	// records only requests that arrive already carrying a sampled
	// trace context, so an untraced deployment pays the no-op path.
	cfg.Tracer = trace.New(*role, *trBuf)
	cfg.Tracer.SetSampling(*trSample, *trSlow)
	if cfg.Role != node.Repair {
		lis, err := rpc.ListenTCP(*listen)
		if err != nil {
			log.Fatalf("listen %s: %v", *listen, err)
		}
		cfg.Listener = lis
	}

	n, err := node.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s running %s", *role, n.Addr)

	var stopMetrics func() error
	if *metAddr != "" {
		exp := metrics.NewExporter()
		exp.Register(*role, n.Metrics())
		traces := trace.NewExporter()
		traces.Register(cfg.Tracer)
		bound, stop, err := node.ServeMetrics(*metAddr, exp, traces)
		if err != nil {
			log.Fatalf("metrics listener on %s: %v", *metAddr, err)
		}
		log.Printf("metrics on http://%s/metrics (traces at /trace)", bound)
		stopMetrics = stop
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	n.Stop()
	if stopMetrics != nil {
		_ = stopMetrics()
	}
	cfg.Pool.Close()
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func newStrategy(name string, seed uint64, stickyWindow int) placement.Strategy {
	switch name {
	case "roundrobin":
		return placement.NewRoundRobin()
	case "random":
		return placement.NewRandom(seed)
	case "sticky":
		return placement.NewRandomSticky(stickyWindow, seed)
	case "leastloaded":
		return placement.NewLeastLoaded()
	}
	log.Fatalf("unknown strategy %q", name)
	return nil
}

// parseShard parses -shard "k/K" into a ShardInfo ("" = unsharded).
func parseShard(s string) vmanager.ShardInfo {
	if s == "" {
		return vmanager.ShardInfo{}
	}
	var k, n int
	if c, err := fmt.Sscanf(s, "%d/%d", &k, &n); err != nil || c != 2 || n < 1 || k < 0 || k >= n {
		log.Fatalf("vmanager: bad -shard %q (want k/K with 0 <= k < K)", s)
	}
	return vmanager.ShardInfo{Index: k, Count: n}
}
