package stream

import "sync/atomic"

// Collector aggregates pipeline activity across every Reader and
// Writer wired to it — the per-stream ReadStats answer "what did this
// reader do", the Collector answers "what is the streaming layer doing
// right now" for a whole client (BSFS mounts feed all their file
// streams into one). All methods are safe on a nil *Collector, so
// wiring is unconditional and costs nothing when metrics are off.
type Collector struct {
	prefetched   atomic.Int64
	prefetchHits atomic.Int64
	canceled     atomic.Int64
	fetched      atomic.Int64
	returned     atomic.Int64
	readersOpen  atomic.Int64
	writersOpen  atomic.Int64
	wbDepth      atomic.Int64
	wbCommits    atomic.Int64
	wbBytes      atomic.Int64
}

func (c *Collector) readerOpened() {
	if c != nil {
		c.readersOpen.Add(1)
	}
}

func (c *Collector) readerClosed() {
	if c != nil {
		c.readersOpen.Add(-1)
	}
}

func (c *Collector) writerOpened() {
	if c != nil {
		c.writersOpen.Add(1)
	}
}

func (c *Collector) writerClosed() {
	if c != nil {
		c.writersOpen.Add(-1)
	}
}

func (c *Collector) prefetchStart() {
	if c != nil {
		c.prefetched.Add(1)
	}
}

func (c *Collector) prefetchHit() {
	if c != nil {
		c.prefetchHits.Add(1)
	}
}

func (c *Collector) prefetchDrop() {
	if c != nil {
		c.canceled.Add(1)
	}
}

func (c *Collector) bytesFetched(n int) {
	if c != nil {
		c.fetched.Add(int64(n))
	}
}

func (c *Collector) bytesReturned(n int) {
	if c != nil {
		c.returned.Add(int64(n))
	}
}

func (c *Collector) commitQueued() {
	if c != nil {
		c.wbDepth.Add(1)
	}
}

func (c *Collector) commitDone(n int64) {
	if c != nil {
		c.wbDepth.Add(-1)
		c.wbCommits.Add(1)
		c.wbBytes.Add(n)
	}
}

// Prefetched returns background block fetches started ahead of readers.
func (c *Collector) Prefetched() int64 {
	if c == nil {
		return 0
	}
	return c.prefetched.Load()
}

// PrefetchHits returns blocks consumed out of readahead windows.
func (c *Collector) PrefetchHits() int64 {
	if c == nil {
		return 0
	}
	return c.prefetchHits.Load()
}

// Canceled returns window entries dropped unconsumed.
func (c *Collector) Canceled() int64 {
	if c == nil {
		return 0
	}
	return c.canceled.Load()
}

// BytesFetched returns snapshot bytes readers fetched, whole blocks,
// prefetches and ranged reads alike. Over BytesReturned it is the read
// amplification.
func (c *Collector) BytesFetched() int64 {
	if c == nil {
		return 0
	}
	return c.fetched.Load()
}

// BytesReturned returns bytes readers handed to their callers.
func (c *Collector) BytesReturned() int64 {
	if c == nil {
		return 0
	}
	return c.returned.Load()
}

// ReadersOpen returns currently open readers.
func (c *Collector) ReadersOpen() int64 {
	if c == nil {
		return 0
	}
	return c.readersOpen.Load()
}

// WritersOpen returns currently open writers.
func (c *Collector) WritersOpen() int64 {
	if c == nil {
		return 0
	}
	return c.writersOpen.Load()
}

// WriteBehindDepth returns write-behind blocks currently in flight
// (enqueued or committing).
func (c *Collector) WriteBehindDepth() int64 {
	if c == nil {
		return 0
	}
	return c.wbDepth.Load()
}

// WriteBehindCommits returns completed background block commits.
func (c *Collector) WriteBehindCommits() int64 {
	if c == nil {
		return 0
	}
	return c.wbCommits.Load()
}

// WriteBehindBytes returns bytes committed through write-behind pools.
func (c *Collector) WriteBehindBytes() int64 {
	if c == nil {
		return 0
	}
	return c.wbBytes.Load()
}
