package main

import (
	"runtime"
	"sort"
	"strings"

	"blobseer/internal/metrics"
)

const mib = 1 << 20

// numEndToEnd is how many leading metrics of endToEnd are the
// BENCHMARK.json end-to-end metrics; the rest apply to appends only.
const numEndToEnd = 6

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (p *phase) ops() float64 { return float64(p.reads.Load() + p.appends.Load()) }

func (p *phase) userBytes() float64 { return float64(p.readBytes.Load() + p.appendBytes.Load()) }

// endToEnd computes the metrics a user of the system sees from an
// untraced phase.
func endToEnd(p *phase, setupS, rssMB float64) []metric {
	reads, appends := p.readLat.take(), p.appendLat.take()
	return []metric{
		{"ops_per_s", perSecond(&p.slotOps, p.window), "1/s"},
		{"user_mbps", perSecond(&p.slotBytes, p.window) / mib, "MB/s"},
		{"read_p50_ms", quantile(reads, 0.50), "ms"},
		{"read_p99_ms", quantile(reads, 0.99), "ms"},
		{"setup_s", setupS, "s"},
		{"peak_rss_mb", rssMB, "MB"},
		{"append_p50_ms", quantile(appends, 0.50), "ms"},
		{"append_p99_ms", quantile(appends, 0.99), "ms"},
		{"fail_frac", ratio(float64(p.failed()), float64(p.attempted.Load())), "ratio"},
		{"stored_bytes_per_user_byte", ratio(float64(p.after.storedBytes-p.before.storedBytes), float64(p.appendBytes.Load())), "ratio"},
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// diagnostics breaks a phase's failed ops down by class, next to the
// share of the machine's CPU time the host stole during the window.
func diagnostics(p *phase) []metric {
	steal := float64(p.after.stealTicks-p.before.stealTicks) / clockTicks
	out := []metric{
		{"host.steal_frac", steal / (p.window.Seconds() * float64(runtime.NumCPU())), "ratio"},
		{"attempted", float64(p.attempted.Load()), "count"},
		{"reads", float64(p.reads.Load()), "count"},
		{"appends", float64(p.appends.Load()), "count"},
	}
	p.failMu.Lock()
	defer p.failMu.Unlock()
	for _, c := range failClasses {
		out = append(out, metric{"failed." + c, float64(p.fails[c]), "count"})
	}
	return out
}

// selfKeys are the (service, op) pairs reported as self_ms.<key>: every
// span the read and append paths record, in milliseconds per op.
var selfKeys = []string{
	unspannedKey,
	"client.readat",
	"client.resolve",
	"client.stream.fetch",
	"client.write",
	"client.append",
	"client.latest",
	"client.meta",
	"namespace.get_file",
	"vmanager.latest",
	"vmanager.get_meta",
	"vmanager.assign",
	"vmanager.commit",
	"vmanager.version_info",
	"meta.get",
	"meta.get_batch",
	"meta.put_batch",
	"pmanager.allocate",
	"provider.get_block",
	"provider.put_block",
	"provider.put_chained",
}

// perLayer computes the BENCHMARK.json per-layer metrics: layer costs
// from the traced phase, the tracing overhead against the untraced
// phase, and the append-only end-to-end metrics of the untraced phase.
func perLayer(u, t *phase, e2e []metric) []metric {
	b, a := t.before, t.after
	user := t.userBytes()
	ops := t.ops()
	vmHist := func(name string) float64 {
		return histP50ms(histDelta(b.services["vmanager"].Histograms[name], a.services["vmanager"].Histograms[name]))
	}
	vmGauge := func(name string) float64 {
		return float64(a.services["vmanager"].Gauges[name] - b.services["vmanager"].Gauges[name])
	}
	var hop []int64
	for name, s := range a.services {
		if strings.HasPrefix(name, "provider-") {
			hop = addBuckets(hop, histDelta(b.services[name].Histograms["chain_hop_latency"], s.Histograms["chain_hop_latency"]))
		}
	}
	commits := float64(a.services["vmanager"].Histograms["latency_commit"].Count - b.services["vmanager"].Histograms["latency_commit"].Count)
	uOps, tOps := perSecond(&u.slotOps, u.window), perSecond(&t.slotOps, t.window)
	gc := t.gcLat.take()

	out := []metric{
		{"rpc.rx_bytes_per_user_byte", ratio(float64(a.rx-b.rx), user), "ratio"},
		{"rpc.tx_bytes_per_user_byte", ratio(float64(a.tx-b.tx), user), "ratio"},
		{"rpc.dials", float64(a.dials), "count"},
		{"stream.prefetch_hit_frac", ratio(float64(t.prefetchHits.Load()), float64(t.prefetched.Load())), "ratio"},
		{"stream.prefetched_blocks_per_open", ratio(float64(t.prefetched.Load()), float64(t.readerOpens.Load())), "count"},
		{"mdtree.get_batches_per_op", ratio(float64(a.getBatches-b.getBatches), ops), "count"},
		{"mdtree.nodes_fetched_per_op", ratio(float64(a.nodesFetched-b.nodesFetched), ops), "count"},
		{"mdtree.get_batch_ms_p50", quantile(a.getLat, 0.5), "ms"},
		{"mdtree.put_batch_ms_p50", quantile(a.putLat, 0.5), "ms"},
		{"mdtree.nodes_put_per_append", ratio(float64(a.nodesPut-b.nodesPut), float64(t.appends.Load())), "count"},
		{"store.get_bytes_per_user_byte", ratio(float64(a.storeGetBytes-b.storeGetBytes), user), "ratio"},
		{"store.put_bytes_per_user_byte", ratio(float64(a.storePutBytes-b.storePutBytes), user), "ratio"},
		{"store.get_ms_p50", quantile(a.sGetLat, 0.5), "ms"},
		{"store.put_ms_p50", quantile(a.sPutLat, 0.5), "ms"},
		{"provider.chain_hop_ms_p50", histP50ms(hop), "ms"},
		{"vmanager.assign_ms_p50", vmHist("latency_assign"), "ms"},
		{"vmanager.commit_ms_p50", vmHist("latency_commit"), "ms"},
		{"wal.syncs_per_record", ratio(vmGauge("wal_syncs"), vmGauge("wal_records")), "ratio"},
		{"wal.bytes_per_commit", ratio(vmGauge("wal_log_bytes"), commits), "B"},
		{"core.gc_ms_per_pass", mean(gc), "ms"},
		{"core.gc_blocks_freed_per_pass", ratio(float64(t.gcFreed.Load()), float64(len(gc))), "count"},
		{"bsfs.open_ms_p50", quantile(t.openLat.take(), 0.5), "ms"},
		{"bsfs.close_ms_p50", quantile(t.closeLat.take(), 0.5), "ms"},
		{"trace.untraced_ops_per_s", uOps, "1/s"},
		{"trace.traced_ops_per_s", tOps, "1/s"},
		{"trace.overhead_frac", ratio(uOps-tOps, uOps), "ratio"},
	}
	out = append(out, e2e[numEndToEnd:]...)
	for _, k := range selfKeys {
		out = append(out, metric{"self_ms." + k, ratio(t.self.ms[k], float64(t.self.ops)), "ms"})
	}
	return out
}

// extraSpans lists self times of spans outside selfKeys, so a new
// span shows up in the printed report before it is added to the list.
func extraSpans(t *phase, reported []metric) []metric {
	have := make(map[string]bool, len(reported))
	for _, m := range reported {
		have[m.name] = true
	}
	var keys []string
	for k := range t.self.ms {
		if !have["self_ms."+k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []metric
	for _, k := range keys {
		out = append(out, metric{"self_ms." + k, ratio(t.self.ms[k], float64(t.self.ops)), "ms"})
	}
	return out
}

// histDelta returns the per-bucket observation counts a histogram
// gained between two snapshots (their bucket lines are cumulative).
func histDelta(before, after metrics.HistSnapshot) []int64 {
	perBucket := func(h metrics.HistSnapshot) []int64 {
		out := make([]int64, len(h.Buckets))
		var prev int64
		for i, b := range h.Buckets {
			out[i] = b.Count - prev
			prev = b.Count
		}
		return out
	}
	d := perBucket(after)
	for i, c := range perBucket(before) {
		d[i] -= c
	}
	return d
}

func addBuckets(a, b []int64) []int64 {
	if len(b) > len(a) {
		a, b = b, a
	}
	out := append([]int64(nil), a...)
	for i, c := range b {
		out[i] += c
	}
	return out
}

// histP50ms estimates the median of per-bucket nanosecond counts the
// way the metrics package does: bucket i holds [2^i, 2^(i+1)) and the
// rank is interpolated linearly inside the bucket it falls in.
func histP50ms(counts []int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	rank := 0.5 * float64(total)
	var seen float64
	for i, c := range counts {
		n := float64(c)
		if n <= 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				lo = float64(int64(1) << i)
				hi = 2 * lo
			}
			return (lo + (rank-seen)/n*(hi-lo)) / 1e6
		}
		seen += n
	}
	return 0
}
