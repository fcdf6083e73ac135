// Command bsfsctl is a client CLI for a running BSFS deployment (see
// cmd/blobseerd for launching one). It speaks to the version manager,
// provider manager, namespace manager and metadata DHT over TCP and
// exercises the same client stack Hadoop would:
//
//	bsfsctl [conn flags] mkdir /data
//	bsfsctl [conn flags] put local.bin /data/input
//	bsfsctl [conn flags] ls /data
//	bsfsctl [conn flags] stat /data/input
//	bsfsctl [conn flags] cat /data/input > copy.bin
//	bsfsctl [conn flags] append more.bin /data/input
//	bsfsctl [conn flags] versions /data/input
//	bsfsctl [conn flags] catv 2 /data/input      # read snapshot version 2
//	bsfsctl [conn flags] readat 4096 512 /data/input  # random-access read
//	bsfsctl [conn flags] locations /data/input   # block -> host map
//	bsfsctl [conn flags] cp -w 8 /data/input /data/input2   # parallel copy
//	bsfsctl [conn flags] prune 3 /data/input                # GC versions < 3
//	bsfsctl [conn flags] mv /data/input /data/old
//	bsfsctl [conn flags] rm -r /data
//	bsfsctl [conn flags] providers                # membership, liveness, repair backlog
//	bsfsctl [conn flags] decommission 127.0.0.1:7201  # drain, then retire
//	bsfsctl [conn flags] vm status                # WAL segments, last snapshot
//	bsfsctl [conn flags] vm snapshot              # force a snapshot + compact
//
// Connection flags:
//
//	-vmanager  comma-separated version manager shard addresses, shard
//	           order (default 127.0.0.1:7001)
//	-pmanager  provider manager address  (default 127.0.0.1:7002)
//	-namespace namespace manager address (default 127.0.0.1:7003)
//	-meta      comma-separated metadata provider addresses
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"time"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/namespace"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: bsfsctl [flags] <command> [args]

commands:
  ls <dir>                 list a directory
  mkdir <dir>              create a directory (and parents)
  put <local> <remote>     upload a local file
  get <remote> <local>     download to a local file
  cat <remote>             write file contents to stdout
  catv <version> <remote>  cat a pinned snapshot version
  readat <off> <len> <remote>  random-access read of the latest snapshot
  append <local> <remote>  append a local file's bytes
  rm [-r] <path>           delete a file or directory
  mv <src> <dst>           rename
  stat <path>              show size/type
  versions <path>          show the latest published version
  prune <keep> <path>      garbage-collect versions below <keep>
  cp [-w N] <src> <dst>    parallel server-side copy with N workers
  locations <path>         show the block->host layout
  providers                show provider membership, liveness and repair backlog
  decommission <addr>      drain a provider's blocks, then retire it
  vm status                show the version manager's WAL (segments, last snapshot)
  vm snapshot              force a WAL snapshot and compact the log
  top [interval [count]]   poll -metrics endpoints and show cluster-wide rates
  trace <trace-id>         stitch a distributed trace from every -metrics endpoint
  trace slow               list slow-sampled root operations across endpoints

flags:
`)
	flag.PrintDefaults()
}

func main() {
	var (
		vmAddr  = flag.String("vmanager", "127.0.0.1:7001", "comma-separated version manager shard addresses (shard order)")
		pmAddr  = flag.String("pmanager", "127.0.0.1:7002", "provider manager address")
		nsAddr  = flag.String("namespace", "127.0.0.1:7003", "namespace manager address")
		metas   = flag.String("meta", "127.0.0.1:7101", "comma-separated metadata provider addresses")
		blockSz = flag.Int64("block-size", 64*util.MB, "striping unit for new files")
		repl    = flag.Int("replication", 1, "replication level for new files")
		mrepl   = flag.Int("meta-replication", 1, "DHT replication level")
		mcache  = flag.Int("meta-cache", -1, "immutable-node cache entries (<0 default, 0 off)")
		host    = flag.String("host", "", "client host label (affinity experiments)")
		rahead  = flag.Int("readahead", bsfs.DefaultReadaheadBlocks, "reader async prefetch window in blocks (0 = synchronous)")
		wbehind = flag.Int("write-behind", bsfs.DefaultWriteBehindDepth, "writer background block commits in flight (0 = synchronous)")
		noCache = flag.Bool("no-cache", false, "disable the BSFS block cache and streaming pipeline (ablation)")
		metEPs  = flag.String("metrics", "", "comma-separated /metrics endpoints (top command)")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	// top only talks HTTP to /metrics endpoints — no RPC stack needed.
	if flag.Arg(0) == "top" {
		args := flag.Args()[1:]
		interval := 2 * time.Second
		iters := 0
		if len(args) > 0 {
			d, err := time.ParseDuration(args[0])
			if err != nil {
				fatal(fmt.Errorf("top: bad interval %q", args[0]))
			}
			interval = d
		}
		if len(args) > 1 {
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 1 {
				fatal(fmt.Errorf("top: bad count %q", args[1]))
			}
			iters = n
		}
		if err := runTop(splitAddrs(*metEPs), interval, iters); err != nil {
			fatal(err)
		}
		return
	}

	// trace only talks HTTP to /trace endpoints — no RPC stack needed.
	if flag.Arg(0) == "trace" {
		if err := runTrace(splitAddrs(*metEPs), flag.Args()[1:]); err != nil {
			fatal(err)
		}
		return
	}

	pool := rpc.NewPool(rpc.TCPDialer)
	defer pool.Close()
	ring := dht.NewRing(splitAddrs(*metas), dht.DefaultVnodes)
	dhtClient := dht.NewClient(ring, pool, *mrepl)
	overlay := repair.NewOverlay(dhtClient)
	metaStore := mdtree.NewDHTStore(dhtClient)

	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]

	// One client surface over every version-manager shard: a plain
	// client for a single address, a Router for a comma-separated list.
	vmAddrs := splitAddrs(*vmAddr)
	if len(vmAddrs) == 0 {
		fatal(fmt.Errorf("-vmanager: no addresses"))
	}
	vm := core.NewVMClient(pool, vmAddrs[0], vmAddrs)

	// The maintenance commands speak to the managers directly — no
	// file-system layer involved.
	switch cmd {
	case "vm":
		if err := runVM(ctx, vm, args); err != nil {
			fatal(err)
		}
		return
	case "providers", "decommission":
		eng := repair.New(repair.Config{
			VM:      vm,
			PM:      pmanager.NewClient(pool, *pmAddr),
			Prov:    provider.NewClient(pool),
			Meta:    mdtree.MaybeCache(metaStore, *mcache),
			Overlay: overlay,
		})
		pm := pmanager.NewClient(pool, *pmAddr)
		if err := runAdmin(ctx, pm, eng, cmd, args); err != nil {
			fatal(err)
		}
		return
	}

	fsys, err := bsfs.New(bsfs.Config{
		Core: core.NewClient(core.Config{
			Pool:          pool,
			VMAddr:        vmAddrs[0],
			VMAddrs:       vmAddrs,
			PMAddr:        *pmAddr,
			MetaStore:     metaStore,
			Host:          *host,
			MetaCacheSize: *mcache,
			Overlay:       overlay,
		}),
		NS:               namespace.NewClient(pool, *nsAddr),
		BlockSize:        *blockSz,
		Replication:      *repl,
		ReadaheadBlocks:  *rahead,
		WriteBehindDepth: *wbehind,
		DisableCache:     *noCache,
	})
	if err != nil {
		fatal(err)
	}
	if err := run(ctx, fsys, cmd, args); err != nil {
		fatal(err)
	}
}

// vmShardClients flattens the client surface back to one client per
// shard so the maintenance commands can address each shard directly.
func vmShardClients(vm vmanager.API) []*vmanager.Client {
	switch v := vm.(type) {
	case *vmanager.Router:
		return v.Shards()
	case *vmanager.Client:
		return []*vmanager.Client{v}
	}
	return nil
}

// runVM handles the version-manager maintenance commands, reporting
// every shard in shard order.
func runVM(ctx context.Context, vm vmanager.API, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("vm: want status | snapshot")
	}
	shards := vmShardClients(vm)
	switch args[0] {
	case "status":
		for k, c := range shards {
			rep, err := c.Status(ctx)
			if err != nil {
				return fmt.Errorf("shard %d: %w", k, err)
			}
			st, ops := rep.WAL, rep.Ops
			if len(shards) > 1 {
				fmt.Printf("--- shard %d/%d ---\n", k, len(shards))
			}
			fmt.Printf("WAL directory:   %s\n", st.Dir)
			fmt.Printf("segments:        %d (seq %d..%d, %d bytes)\n",
				st.Segments, st.FirstSeq, st.LastSeq, st.LogBytes)
			if st.SnapshotSeq > 0 {
				fmt.Printf("last snapshot:   seq %d\n", st.SnapshotSeq)
			} else {
				fmt.Printf("last snapshot:   none\n")
			}
			fmt.Printf("records (since open): %d\n", st.Records)
			fmt.Printf("fsyncs (since open):  %d\n", st.Syncs)
			if st.LastSyncUnix > 0 {
				fmt.Printf("last fsync:      %s\n", time.Unix(st.LastSyncUnix, 0).Format(time.RFC3339))
			} else {
				fmt.Printf("last fsync:      never\n")
			}
			fmt.Printf("ops: create=%d assign=%d commit=%d abort=%d latest=%d wait=%d (total %d)\n",
				ops.Create, ops.Assign, ops.Commit, ops.Abort, ops.Latest, ops.Wait, ops.Total())
		}
		return nil
	case "snapshot":
		for k, c := range shards {
			if err := c.ForceSnapshot(ctx); err != nil {
				return fmt.Errorf("shard %d: %w", k, err)
			}
			st, err := c.WALStatus(ctx)
			if err != nil {
				return fmt.Errorf("shard %d: %w", k, err)
			}
			if len(shards) > 1 {
				fmt.Printf("shard %d: ", k)
			}
			fmt.Printf("snapshot written (seq %d); log compacted to %d segment(s), %d bytes\n",
				st.SnapshotSeq, st.Segments, st.LogBytes)
		}
		return nil
	}
	return fmt.Errorf("unknown vm command %q (want status | snapshot)", args[0])
}

// formatTiers renders a per-tier occupancy breakdown like
// "hot=12/48MB cold=340/1.2GB" (blocks/bytes per tier).
func formatTiers(tiers []store.TierStat) string {
	if len(tiers) == 0 {
		return "-"
	}
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%s=%d/%s", t.Name, t.Items, util.FormatBytes(t.Bytes))
	}
	return strings.Join(parts, " ")
}

// runAdmin handles the membership/repair commands.
func runAdmin(ctx context.Context, pm *pmanager.Client, eng *repair.Engine, cmd string, args []string) error {
	switch cmd {
	case "providers":
		if len(args) != 0 {
			return fmt.Errorf("providers: no arguments expected")
		}
		infos, err := pm.List(ctx)
		if err != nil {
			return err
		}
		// One combined metadata walk: the repair work list (backlog) and
		// the inventory audit (strays) share the scan.
		tasks, orphans, err := eng.Status(ctx)
		if err != nil {
			return err
		}
		// Backlog per provider: blocks whose under-replication involves
		// this provider as a (possibly sole) remaining holder or source.
		backlog := make(map[string]int)
		for _, t := range tasks {
			for _, a := range t.Sources {
				backlog[a]++
			}
		}
		// Providers on a tiered backend report per-tier occupancy; show
		// the breakdown column when any row carries one.
		tiered := false
		for _, in := range infos {
			if len(in.Tiers) > 0 {
				tiered = true
				break
			}
		}
		fmt.Printf("%-24s %-12s %8s %12s %6s %9s %8s %6s",
			"ADDRESS", "HOST", "BLOCKS", "BYTES", "ALIVE", "DRAINING", "BACKLOG", "STRAY")
		if tiered {
			fmt.Printf("  %s", "TIERS")
		}
		fmt.Println()
		for _, in := range infos {
			fmt.Printf("%-24s %-12s %8d %12d %6v %9v %8d %6d",
				in.Addr, in.Host, in.Blocks, in.Bytes, in.Alive, in.Draining, backlog[in.Addr], orphans[in.Addr])
			if tiered {
				fmt.Printf("  %s", formatTiers(in.Tiers))
			}
			fmt.Println()
		}
		fmt.Printf("repair backlog: %d under-replicated block(s)\n", len(tasks))
		return nil

	case "decommission":
		if len(args) != 1 {
			return fmt.Errorf("decommission: want <provider-addr>")
		}
		rep, err := eng.Decommission(ctx, args[0])
		if err != nil {
			return err
		}
		fmt.Printf("decommissioned %s: %d block(s) re-replicated (%d copies) in %s; provider retired\n",
			args[0], rep.UnderReplicated, rep.Copies, rep.Elapsed.Round(time.Millisecond))
		return nil
	}
	return fmt.Errorf("unknown admin command %q", cmd)
}

func run(ctx context.Context, fsys *bsfs.FS, cmd string, args []string) error {
	switch cmd {
	case "ls":
		if len(args) != 1 {
			return fmt.Errorf("ls: want <dir>")
		}
		sts, err := fsys.List(ctx, args[0])
		if err != nil {
			return err
		}
		for _, st := range sts {
			kind := "-"
			if st.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %12d  %s\n", kind, st.Size, st.Path)
		}
		return nil

	case "mkdir":
		if len(args) != 1 {
			return fmt.Errorf("mkdir: want <dir>")
		}
		return fsys.Mkdirs(ctx, args[0])

	case "put", "append":
		if len(args) != 2 {
			return fmt.Errorf("%s: want <local> <remote>", cmd)
		}
		in, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer in.Close()
		var w io.WriteCloser
		if cmd == "put" {
			w, err = fsys.Create(ctx, args[1], true)
		} else {
			w, err = fsys.Append(ctx, args[1])
		}
		if err != nil {
			return err
		}
		n, err := io.Copy(w, in)
		if err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: %d bytes -> %s\n", cmd, n, args[1])
		return nil

	case "get":
		if len(args) != 2 {
			return fmt.Errorf("get: want <remote> <local>")
		}
		r, err := fsys.Open(ctx, args[0])
		if err != nil {
			return err
		}
		defer r.Close()
		out, err := os.Create(args[1])
		if err != nil {
			return err
		}
		n, err := io.Copy(out, r)
		if err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("get: %d bytes -> %s\n", n, args[1])
		return nil

	case "cat":
		if len(args) != 1 {
			return fmt.Errorf("cat: want <remote>")
		}
		r, err := fsys.Open(ctx, args[0])
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.Copy(os.Stdout, r)
		return err

	case "catv":
		if len(args) != 2 {
			return fmt.Errorf("catv: want <version> <remote>")
		}
		v, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("catv: bad version %q", args[0])
		}
		// OpenVersion IS the handle path now (Blob.Snapshot +
		// Snapshot.NewReader under the hood) and respects the
		// -readahead/-no-cache tuning flags.
		r, err := fsys.OpenVersion(ctx, args[1], v)
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.Copy(os.Stdout, r)
		return err

	case "readat":
		if len(args) != 3 {
			return fmt.Errorf("readat: want <offset> <length> <remote>")
		}
		off, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("readat: bad offset %q", args[0])
		}
		length, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil || length < 0 {
			return fmt.Errorf("readat: bad length %q", args[1])
		}
		// Random access without a stream: one pinned snapshot, one
		// zero-copy ReadAt into a caller-owned buffer.
		b, err := fsys.OpenBlob(ctx, args[2])
		if err != nil {
			return err
		}
		s, err := b.Latest(ctx)
		if err != nil {
			return err
		}
		buf := make([]byte, length)
		n, err := s.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return err
		}
		_, werr := os.Stdout.Write(buf[:n])
		return werr

	case "rm":
		recursive := false
		if len(args) > 0 && args[0] == "-r" {
			recursive = true
			args = args[1:]
		}
		if len(args) != 1 {
			return fmt.Errorf("rm: want [-r] <path>")
		}
		return fsys.Delete(ctx, args[0], recursive)

	case "mv":
		if len(args) != 2 {
			return fmt.Errorf("mv: want <src> <dst>")
		}
		return fsys.Rename(ctx, args[0], args[1])

	case "stat":
		if len(args) != 1 {
			return fmt.Errorf("stat: want <path>")
		}
		st, err := fsys.Stat(ctx, args[0])
		if err != nil {
			return err
		}
		kind := "file"
		if st.IsDir {
			kind = "directory"
		}
		fmt.Printf("%s\t%s\t%d bytes\n", st.Path, kind, st.Size)
		return nil

	case "versions":
		if len(args) != 1 {
			return fmt.Errorf("versions: want <path>")
		}
		v, err := fsys.Versions(ctx, args[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s: latest published version %d\n", args[0], v)
		return nil

	case "prune":
		if len(args) != 2 {
			return fmt.Errorf("prune: want <keep-version> <path>")
		}
		keep, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("prune: bad version %q", args[0])
		}
		st, err := fsys.Prune(ctx, args[1], blob.Version(keep))
		if err != nil {
			return err
		}
		fmt.Printf("pruned versions [%d, %d): freed %d metadata nodes, %d block replicas\n",
			st.From, st.To, st.NodesFreed, st.BlocksFreed)
		return nil

	case "cp":
		workers := 4
		if len(args) > 0 && args[0] == "-w" {
			if len(args) < 2 {
				return fmt.Errorf("cp: -w wants a worker count")
			}
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 1 {
				return fmt.Errorf("cp: bad worker count %q", args[1])
			}
			workers = n
			args = args[2:]
		}
		if len(args) != 2 {
			return fmt.Errorf("cp: want [-w N] <src> <dst>")
		}
		if err := fsys.ParallelCopy(ctx, args[0], args[1], workers); err != nil {
			return err
		}
		st, err := fsys.Stat(ctx, args[1])
		if err != nil {
			return err
		}
		fmt.Printf("cp: %d bytes -> %s (%d concurrent writers)\n", st.Size, args[1], workers)
		return nil

	case "locations":
		if len(args) != 1 {
			return fmt.Errorf("locations: want <path>")
		}
		st, err := fsys.Stat(ctx, args[0])
		if err != nil {
			return err
		}
		locs, err := fsys.Locations(ctx, args[0], 0, st.Size)
		if err != nil {
			return err
		}
		for _, l := range locs {
			fmt.Printf("[%12d +%12d]  %s\n", l.Off, l.Len, strings.Join(l.Hosts, ","))
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bsfsctl: %v\n", err)
	os.Exit(1)
}
