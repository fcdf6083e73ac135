package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/fs"
	"blobseer/internal/metrics"
	"blobseer/internal/trace"
)

// warmup runs the full mix before each measured window so caches and
// connections are warm when timing starts.
const warmup = time.Second

// phase accumulates one measured window. Every method is a no-op on a
// nil phase, which is what ops outside the window record into.
type phase struct {
	window time.Duration

	// Throughput is counted per slot of the window and reported as the
	// median slot, so a short stall of the host does not move it.
	start     time.Time
	slotOps   [slots]atomic.Int64
	slotBytes [slots]atomic.Int64

	readLat, appendLat samples
	openLat, closeLat  samples
	gcLat              samples

	attempted, reads, appends atomic.Int64 // reads/appends: returned without error
	readBytes, appendBytes    atomic.Int64
	gcFreed                   atomic.Int64
	readerOpens, prefetched   atomic.Int64
	prefetchHits              atomic.Int64

	failMu sync.Mutex
	fails  map[string]int64

	self *selfTimes // traced phases only

	before, after counters
}

// slots is how many equal parts a measured window is counted in.
const slots = 10

func newPhase(traced bool, start time.Time, window time.Duration) *phase {
	p := &phase{fails: make(map[string]int64), start: start, window: window}
	if traced {
		p.self = &selfTimes{ms: make(map[string]float64)}
	}
	return p
}

func (p *phase) openDone(t0 time.Time) {
	if p != nil {
		p.openLat.add(time.Since(t0))
	}
}

func (p *phase) closeDone(t0 time.Time) {
	if p != nil {
		p.closeLat.add(time.Since(t0))
	}
}

func (p *phase) readDone(d time.Duration, n int, err error) {
	if p == nil {
		return
	}
	p.attempted.Add(1)
	if err != nil {
		p.failClass(classify(err))
		return
	}
	p.reads.Add(1)
	p.readBytes.Add(int64(n))
	p.readLat.add(d)
	p.countSlot(n)
}

// countSlot credits one completed op of n user bytes to the slot of
// the window it completed in.
func (p *phase) countSlot(n int) {
	i := int(time.Since(p.start) * slots / p.window)
	if i >= 0 && i < slots {
		p.slotOps[i].Add(1)
		p.slotBytes[i].Add(int64(n))
	}
}

// perSecond returns the median slot's count as a rate.
func perSecond(counts *[slots]atomic.Int64, window time.Duration) float64 {
	xs := make([]float64, slots)
	for i := range counts {
		xs[i] = float64(counts[i].Load())
	}
	return median(xs) * slots / window.Seconds()
}

func (p *phase) appendDone(d time.Duration, n int, err error) {
	if p == nil {
		return
	}
	p.attempted.Add(1)
	if err != nil {
		p.failClass(classify(err))
		return
	}
	p.appends.Add(1)
	p.appendBytes.Add(int64(n))
	p.appendLat.add(d)
	p.countSlot(n)
}

func (p *phase) failClass(class string) {
	if p == nil {
		return
	}
	p.failMu.Lock()
	p.fails[class]++
	p.failMu.Unlock()
}

func (p *phase) failed() int64 {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	var n int64
	for _, c := range p.fails {
		n += c
	}
	return n
}

// noteReader folds a closed reader's pipeline counters into p.
func (p *phase) noteReader(rd fs.Reader) {
	if pr, ok := rd.(bsfs.PipelinedReader); ok && p != nil {
		rs := pr.ReadStats()
		p.readerOpens.Add(1)
		p.prefetched.Add(int64(rs.Prefetched))
		p.prefetchHits.Add(int64(rs.PrefetchHits))
	}
}

// counters is a point-in-time reading of every cumulative counter the
// per-layer metrics are deltas of.
type counters struct {
	rx, tx, dials                    int64
	getBatches, nodesFetched         int64
	putBatches, nodesPut             int64
	storeGetBytes, storePutBytes     int64
	storedBytes                      int64
	stealTicks                       int64
	services                         map[string]metrics.Snapshot
	getLat, putLat, sGetLat, sPutLat []float64
}

func readCounters(d *deployment, st *stack, bt *blockTap) counters {
	c := counters{
		rx:            st.conn.rx.Load(),
		tx:            st.conn.tx.Load(),
		dials:         st.conn.dials.Load(),
		storeGetBytes: bt.getBytes.Load(),
		storePutBytes: bt.putBytes.Load(),
		storedBytes:   d.storedBytes(),
		stealTicks:    stealTicks(),
		services:      d.bs.Exporter().Snapshot(),
	}
	if m := st.meta; m != nil {
		c.getBatches, c.nodesFetched = m.getBatches.Load(), m.nodesFetched.Load()
		c.putBatches, c.nodesPut = m.putBatches.Load(), m.nodesPut.Load()
		c.getLat, c.putLat = m.getLat.take(), m.putLat.take()
	}
	c.sGetLat, c.sPutLat = bt.getLat.take(), bt.putLat.take()
	return c
}

// runPhase drives the workload's closed-loop workers over st: a
// warm-up, then a measured window of length window.
func runPhase(ctx context.Context, w *workload, d *deployment, st *stack, bt *blockTap, window time.Duration, traced bool, stream uint64, mm *mismatchLog) (*phase, error) {
	r := &runner{w: w, st: st, stop: make(chan struct{}), mismatch: mm, stored: d.storedBytes}
	r.spans = func(ctx context.Context) (context.Context, func(*phase, []interval, int)) {
		return ctx, func(*phase, []interval, int) {}
	}
	if traced {
		exp := d.bs.TraceExporter()
		r.spans = func(ctx context.Context) (context.Context, func(*phase, []interval, int)) {
			ctx, id := core.WithTrace(ctx)
			return ctx, func(p *phase, calls []interval, ops int) {
				p.self.add(exp.Spans(id), calls, ops)
			}
		}
	}
	bt.timed.Store(traced)
	defer bt.timed.Store(false)

	var wg sync.WaitGroup
	gcErr := make(chan error, 1) // the GC loop's result
	if w.kind == kindAppendRead {
		r.gcKick = make(chan struct{}, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			gcErr <- r.gcLoop(ctx)
		}()
	}
	for i := 0; i < workers; i++ {
		rng := rand.New(rand.NewPCG(w.seed, stream*workers+uint64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker(ctx, i, rng)
		}()
	}

	// The GC loop returns before stop is closed only on an error; the
	// phase then ends at once.
	var err error
	sleep := func(d time.Duration) bool {
		select {
		case <-time.After(d):
			return true
		case err = <-gcErr:
			return false
		}
	}
	var p *phase
	if sleep(warmup) {
		before := readCounters(d, st, bt)
		p = newPhase(traced, time.Now(), window)
		p.before = before
		r.cur.Store(p)
		sleep(window)
		r.cur.Store(nil)
		p.after = readCounters(d, st, bt)
	}
	close(r.stop)
	wg.Wait()
	if err == nil {
		select {
		case err = <-gcErr:
		default: // no GC loop in this workload
		}
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// selfTimes sums, per service and operation, the self time of every
// span of the traced ops: a span's duration minus the part of it its
// children cover. Spans of numbered daemons (provider-3, meta-1) are
// pooled under their service name.
type selfTimes struct {
	mu  sync.Mutex
	ms  map[string]float64
	ops int64
}

// unspannedKey names client call time that no span covers.
const unspannedKey = "client.unspanned"

func (s *selfTimes) add(spans []trace.Span, calls []interval, ops int) {
	roots := trace.Stitch(spans)
	local := make(map[string]float64)
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		lo := n.Span.Start.UnixNano()
		hi := lo + int64(n.Span.Duration)
		var kids []interval
		for _, c := range n.Children {
			kids = append(kids, spanInterval(c.Span))
			walk(c)
		}
		self := float64(int64(n.Span.Duration)-covered(kids, lo, hi)) / 1e6
		local[serviceName(n.Span.Service)+"."+n.Span.Op] += self
	}
	var rootIvs []interval
	for _, n := range roots {
		rootIvs = append(rootIvs, spanInterval(n.Span))
		walk(n)
	}
	var callTime, coveredTime int64
	for _, c := range calls {
		callTime += c.end - c.start
		coveredTime += covered(rootIvs, c.start, c.end)
	}
	local[unspannedKey] += float64(callTime-coveredTime) / 1e6

	s.mu.Lock()
	for k, v := range local {
		s.ms[k] += v
	}
	s.ops += int64(ops)
	s.mu.Unlock()
}

func spanInterval(sp trace.Span) interval {
	lo := sp.Start.UnixNano()
	return interval{lo, lo + int64(sp.Duration)}
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.start, lo), min(iv.end, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.end <= end {
			continue
		}
		total += iv.end - max(iv.start, end)
		end = iv.end
	}
	return total
}

// serviceName drops a daemon index suffix: "provider-3" -> "provider".
func serviceName(s string) string {
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := fmt.Sscanf(s[i+1:], "%d", new(int)); err == nil {
			return s[:i]
		}
	}
	return s
}

// stealTicks reads the machine-wide CPU time stolen by the hypervisor,
// in clock ticks (/proc/stat), or 0 where it is not available. The
// report prints its share of the window so a run slowed by a busy host
// can be told apart from a slower program.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}
