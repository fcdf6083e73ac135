package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ReaderConfig wires a Reader to its snapshot.
type ReaderConfig struct {
	// ReadAt fills all of p with the snapshot bytes starting at off, or
	// fails (required). The reader never asks past Size. Whole-block
	// loads pass a buffer the reader allocates; ranged reads pass the
	// caller's own slice. Implementations must be safe for concurrent
	// calls: the readahead window fetches several blocks at once.
	ReadAt func(ctx context.Context, p []byte, off int64) error
	// Size is the pinned snapshot size; the stream EOFs there.
	Size int64
	// BlockSize is the granularity of sequential streams: they load
	// whole blocks and count the readahead window in blocks.
	BlockSize int64
	// Readahead is the asynchronous prefetch window: up to this many
	// blocks are fetched by background goroutines ahead of a sequential
	// stream. <= 0 keeps reads fully synchronous — one block fetched at
	// a time, on demand.
	Readahead int
	// NoCache treats every Read as non-sequential: each fetches exactly
	// the range it asks for, with no block cache and no prefetch
	// (ablation benches; the simulator models per-request costs).
	NoCache bool
	// Collector, when non-nil, aggregates this reader's pipeline
	// activity into shared client-wide metrics.
	Collector *Collector
}

// ReadStats counts the reader-side pipeline activity (tests, tuning).
type ReadStats struct {
	Prefetched   int // background block fetches started ahead of pos
	PrefetchHits int // blocks consumed out of the readahead window
	Canceled     int // window entries dropped unconsumed by Seek/Close
}

// PipelinedReader is implemented by stream readers; callers can
// type-assert a generic reader to observe the readahead pipeline.
type PipelinedReader interface {
	ReadStats() ReadStats
}

// Reader is an io.ReadSeekCloser over a pinned snapshot that sizes
// each fetch to the access pattern. A Read is sequential when it
// starts at offset 0 or exactly where the previous Read ended.
// Sequential reads load whole enclosing blocks (Section IV-B), so a
// Hadoop-style run of 4 KB reads costs one block transfer; with
// Readahead > 0 they also keep a bounded window of the following
// blocks in flight, fetched by background goroutines, so consuming
// block i overlaps the transfer of blocks i+1..i+N. Any other Read
// that neither the cached block nor the window can serve fetches
// exactly the range it asks for, in one call, straight into the
// caller's buffer: a 64 KB random read moves 64 KB, not a block. The
// first Read that continues a ranged one is sequential, so a stream
// that seeks once and then reads on starts its window there.
type Reader struct {
	ctx       context.Context
	readAt    func(ctx context.Context, p []byte, off int64) error
	size      int64
	blockSize int64
	readahead int
	noCache   bool

	mu       sync.Mutex
	pos      int64
	lastEnd  int64 // stream offset where the previous Read ended (-1 = none)
	cacheOff int64 // file offset of cached block (-1 = empty)
	cache    []byte
	closed   bool

	window map[int64]*blockLoad // block start -> in-flight or completed background fetch
	stats  ReadStats
	coll   *Collector
}

var (
	_ io.ReadSeekCloser = (*Reader)(nil)
	_ PipelinedReader   = (*Reader)(nil)
)

// blockLoad is one asynchronous block fetch.
type blockLoad struct {
	done   chan struct{}
	cancel context.CancelFunc
	data   []byte
	err    error
}

// NewReader returns a reader over the snapshot described by cfg. The
// context is pinned for the reader's lifetime: canceling it aborts all
// outstanding fetches.
func NewReader(ctx context.Context, cfg ReaderConfig) *Reader {
	readahead := cfg.Readahead
	if readahead < 0 || cfg.NoCache {
		readahead = 0
	}
	cfg.Collector.readerOpened()
	return &Reader{
		ctx:       ctx,
		readAt:    cfg.ReadAt,
		size:      cfg.Size,
		blockSize: cfg.BlockSize,
		readahead: readahead,
		noCache:   cfg.NoCache,
		lastEnd:   -1,
		cacheOff:  -1,
		window:    make(map[int64]*blockLoad),
		coll:      cfg.Collector,
	}
}

// errSeekRaced reports that a concurrent Seek moved the stream while a
// pipelined or ranged fetch was waited on (the lock is released during
// the wait); the read loop resumes from the new position.
var errSeekRaced = errors.New("stream: seek raced a block fetch")

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrReaderClosed
	}
	if r.pos >= r.size {
		return 0, io.EOF
	}
	n, err := r.lockedRead(p)
	if n > 0 {
		r.coll.bytesReturned(n)
	}
	return n, err
}

// lockedSequential reports whether a Read starting at the current
// position continues the stream.
func (r *Reader) lockedSequential() bool {
	return !r.noCache && (r.pos == 0 || r.pos == r.lastEnd)
}

// lockedRead fills p from the cached block, the readahead window,
// whole-block loads (sequential reads) or one ranged fetch (all other
// reads). lastEnd follows every advance as it happens: a Seek that
// races a fetch moves pos, never where the returned bytes ended.
func (r *Reader) lockedRead(p []byte) (int, error) {
	seq := r.lockedSequential()
	n := 0
	for n < len(p) && r.pos < r.size {
		dst := p[n : int64(n)+min(int64(len(p)-n), r.size-r.pos)]
		if r.pos >= r.cacheOff && r.pos-r.cacheOff < int64(len(r.cache)) {
			c := copy(dst, r.cache[r.pos-r.cacheOff:])
			n += c
			r.pos += int64(c)
			r.lastEnd = r.pos
			continue
		}
		blockStart := r.pos / r.blockSize * r.blockSize
		var err error
		if seq || r.window[blockStart] != nil {
			err = r.lockedLoad(r.pos, blockStart, seq)
		} else if err = r.lockedReadRange(dst); err == nil {
			n += len(dst)
			r.lastEnd = r.pos
		}
		if errors.Is(err, errSeekRaced) {
			// A concurrent Seek moved the stream. Bytes already copied
			// stay a single contiguous range (return them); otherwise
			// resume from the position the Seek set.
			if n > 0 {
				return n, nil
			}
			seq = r.lockedSequential()
			continue
		}
		if err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
	}
	if n == 0 && r.pos >= r.size {
		return 0, io.EOF // a racing Seek pushed the stream to EOF
	}
	return n, nil
}

// lockedReadRange is the ranged path: it fills dst from the stream
// position with one fetch straight into the caller's buffer, waiting
// with the lock released so Seek/Close stay responsive.
func (r *Reader) lockedReadRange(dst []byte) error {
	off := r.pos
	r.mu.Unlock()
	err := r.fetchInto(r.ctx, dst, off)
	r.mu.Lock()
	switch {
	case r.closed:
		return ErrReaderClosed
	case r.pos != off:
		return errSeekRaced
	case err != nil:
		return err
	}
	r.pos += int64(len(dst))
	return nil
}

// lockedLoad installs the block at blockStart into the cache, through
// the readahead window when there is one.
func (r *Reader) lockedLoad(off, blockStart int64, seq bool) error {
	length := min(r.blockSize, r.size-blockStart)
	if r.readahead > 0 {
		return r.lockedLoadPipelined(off, blockStart, length, seq)
	}
	data, err := r.fetchBlock(r.ctx, blockStart, length)
	if err != nil {
		return err
	}
	r.cache = data
	r.cacheOff = blockStart
	return nil
}

// lockedLoadPipelined installs the block at blockStart into the cache
// through the readahead window: it consumes a background fetch if one
// is in flight (or starts one), tops the window up when the read is
// sequential, and waits with the lock released so Seek/Close stay
// responsive. off is the stream position the caller is serving; if a
// concurrent Seek moves r.pos off it while the lock is down,
// errSeekRaced tells the read loop to resume from the new position
// instead of mis-pairing old bytes with the new one.
func (r *Reader) lockedLoadPipelined(off, blockStart, length int64, seq bool) error {
	f, hit := r.window[blockStart]
	if !hit {
		f = r.startFetch(blockStart, length)
		r.window[blockStart] = f
	} else {
		r.stats.PrefetchHits++
		r.coll.prefetchHit()
	}

	// Top the window back up before blocking on the current block so
	// the pipeline never drains.
	if seq {
		for next := blockStart + r.blockSize; next < r.size && next <= blockStart+int64(r.readahead)*r.blockSize; next += r.blockSize {
			if _, ok := r.window[next]; ok {
				continue
			}
			r.window[next] = r.startFetch(next, min(r.blockSize, r.size-next))
			r.stats.Prefetched++
			r.coll.prefetchStart()
		}
	}

	// Blocks behind the stream position are dead weight: cancel them.
	r.lockedPruneBehind(blockStart)

	for attempt := 0; ; attempt++ {
		r.mu.Unlock()
		<-f.done
		r.mu.Lock()
		if r.closed {
			return ErrReaderClosed
		}
		if r.window[blockStart] == f {
			delete(r.window, blockStart)
		}
		if f.err == nil {
			r.cache = f.data
			r.cacheOff = blockStart
			if r.pos != off {
				return errSeekRaced // block kept cached; serve the new pos
			}
			return nil
		}
		if r.pos != off {
			return errSeekRaced
		}
		// A prefetch canceled by a concurrent Seek (whose target then
		// turned out to need this block after all) is not a stream
		// error: retry once in the foreground.
		if attempt > 0 || !errors.Is(f.err, context.Canceled) || r.ctx.Err() != nil {
			return f.err
		}
		f = r.startFetch(blockStart, length)
		r.window[blockStart] = f
	}
}

// startFetch launches a background fetch of [blockStart,
// blockStart+length) with its own cancelable context.
func (r *Reader) startFetch(blockStart, length int64) *blockLoad {
	fctx, cancel := context.WithCancel(r.ctx)
	f := &blockLoad{done: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(f.done)
		f.data, f.err = r.fetchBlock(fctx, blockStart, length)
		cancel()
	}()
	return f
}

// fetchBlock reads [start, start+length) into a buffer of its own.
func (r *Reader) fetchBlock(ctx context.Context, start, length int64) ([]byte, error) {
	buf := make([]byte, length)
	if err := r.fetchInto(ctx, buf, start); err != nil {
		return nil, err
	}
	return buf, nil
}

// fetchInto fills p from the snapshot at off; every fetch, ranged or
// whole-block, goes through here.
func (r *Reader) fetchInto(ctx context.Context, p []byte, off int64) error {
	if err := r.readAt(ctx, p, off); err != nil {
		return err
	}
	r.coll.bytesFetched(len(p))
	return nil
}

// lockedCancelWindow aborts every outstanding background fetch.
func (r *Reader) lockedCancelWindow() {
	for start, f := range r.window {
		f.cancel()
		delete(r.window, start)
		r.stats.Canceled++
		r.coll.prefetchDrop()
	}
}

// lockedPruneBehind aborts window fetches strictly behind blockStart,
// keeping the warm entries ahead of it.
func (r *Reader) lockedPruneBehind(blockStart int64) {
	for start, f := range r.window {
		if start < blockStart {
			f.cancel()
			delete(r.window, start)
			r.stats.Canceled++
			r.coll.prefetchDrop()
		}
	}
}

// Seek implements io.Seeker. Seeking away from the run cancels the
// readahead window: prefetches issued for the abandoned run are
// aborted rather than left to fetch blocks the stream no longer
// wants. A seek whose target is still in hand — inside the cached
// block or a prefetched window entry — keeps the warm pipeline and
// only drops entries the stream has passed.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrReaderClosed
	}
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.pos + offset
	case io.SeekEnd:
		abs = r.size + offset
	default:
		return 0, fmt.Errorf("stream: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("stream: negative seek position %d", abs)
	}
	if abs != r.pos {
		newBlock := abs / r.blockSize * r.blockSize
		if (r.cache != nil && r.cacheOff == newBlock) || r.window[newBlock] != nil {
			r.lockedPruneBehind(newBlock)
		} else {
			r.lockedCancelWindow()
		}
	}
	r.pos = abs
	return abs, nil
}

// Close implements io.Closer.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lockedCancelWindow()
	if !r.closed {
		r.coll.readerClosed()
	}
	r.closed = true
	r.cache = nil
	return nil
}

// Size returns the pinned snapshot size.
func (r *Reader) Size() int64 { return r.size }

// ReadStats implements PipelinedReader.
func (r *Reader) ReadStats() ReadStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
