package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/fs"
	"blobseer/internal/util"
	"blobseer/internal/vmanager"
)

// Workload parameters (see README.md for why each was chosen).
const (
	workers = 2 // closed-loop workers, one per core of the reference machine

	// scan and random-read share one read-only working set.
	workingFiles    = 4
	workingFileSize = 16 * util.MB
	randomReadSize  = 64 * util.KB

	// append-read: 70% appends, 30% reads, over two shared files.
	// Worker i is the only appender of file i; both workers read both.
	appendFiles    = workers
	appendPercent  = 70
	initRecords    = 64  // records each shared file starts with (4 MB)
	gcEvery        = 100 // completed ops between GC passes
	gcKeepVersions = 32  // versions each GC pass keeps per file
	recordSize     = 64 << 10
	lineSize       = 64
	recordMagic    = 0x43525342 // "BSRC" little-endian
	setupWorker    = 0xffff     // worker ID of the records populate writes
	// storedBytesCap bounds what the providers may hold: a run whose
	// version collection falls behind stops with an error here instead
	// of exhausting the machine's memory.
	storedBytesCap = 3 << 30
)

type workloadKind int

const (
	kindScan workloadKind = iota
	kindRandomRead
	kindAppendRead
)

var workloadNames = map[string]workloadKind{
	"scan":        kindScan,
	"random-read": kindRandomRead,
	"append-read": kindAppendRead,
}

// workload is one named traffic mix plus the state its correctness
// checks need across phases.
type workload struct {
	kind        workloadKind
	name        string
	seed        uint64
	replication int
	durable     bool // append-read: WAL-backed control plane

	expected [][]byte // scan, random-read: every working-set file's bytes
	ledger   *ledger  // append-read: what each append returned
	// gcKept is each shared file's prune point so far; only the GC loop
	// of the current phase touches it.
	gcKept [appendFiles]blob.Version
}

func newWorkload(name string, seed uint64) (*workload, error) {
	kind, ok := workloadNames[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want scan, random-read or append-read)", name)
	}
	w := &workload{kind: kind, name: name, seed: seed, replication: 1}
	switch kind {
	case kindScan, kindRandomRead:
		w.expected = make([][]byte, workingFiles)
		for f := range w.expected {
			w.expected[f] = fileBytes(seed, f, workingFileSize)
		}
	case kindAppendRead:
		w.replication = 2
		w.durable = true
		w.ledger = &ledger{}
	}
	return w, nil
}

// fileBytes derives working-set file f's contents from the seed.
func fileBytes(seed uint64, f int, n int64) []byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], seed)
	binary.LittleEndian.PutUint64(key[8:], uint64(f))
	b := make([]byte, n)
	_, _ = rand.NewChaCha8(key).Read(b) // never fails
	return b
}

func workingPath(f int) string { return fmt.Sprintf("/bench/ws/f%d", f) }
func sharedPath(f int) string  { return fmt.Sprintf("/bench/shared/f%d", f) }

// populate writes the workload's initial files.
func (w *workload) populate(ctx context.Context, fsys *bsfs.FS) error {
	if w.kind == kindAppendRead {
		rec := make([]byte, recordSize)
		for f := 0; f < appendFiles; f++ {
			wr, err := fsys.Create(ctx, sharedPath(f), true)
			if err != nil {
				return err
			}
			for i := 0; i < initRecords; i++ {
				fillRecord(rec, w.seed, setupWorker, uint32(i))
				if _, err := wr.Write(rec); err != nil {
					wr.Close()
					return err
				}
			}
			if err := wr.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	for f, data := range w.expected {
		wr, err := fsys.Create(ctx, workingPath(f), true)
		if err != nil {
			return err
		}
		if _, err := wr.Write(data); err != nil {
			wr.Close()
			return err
		}
		if err := wr.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Append records: every appended 64 KB record is 1024 lines of 64
// bytes. Each line carries the record header (magic, writer, line
// index, sequence, record length) followed by 48 payload bytes derived
// from (seed, writer, sequence, line), so any 64-byte-aligned window
// of a file can be checked on its own: that each record is whole, sits
// on a record boundary, comes from one writer and holds that writer's
// bytes.

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fillLine(line []byte, seed uint64, worker, seq uint32, l int) {
	binary.LittleEndian.PutUint32(line[0:], recordMagic)
	binary.LittleEndian.PutUint16(line[4:], uint16(worker))
	binary.LittleEndian.PutUint16(line[6:], uint16(l))
	binary.LittleEndian.PutUint32(line[8:], seq)
	binary.LittleEndian.PutUint32(line[12:], recordSize)
	h := splitmix(seed ^ uint64(worker)<<48 ^ uint64(seq)<<16 ^ uint64(l))
	for i := 16; i < lineSize; i += 8 {
		h = splitmix(h)
		binary.LittleEndian.PutUint64(line[i:], h)
	}
}

func fillRecord(rec []byte, seed uint64, worker, seq uint32) {
	for l := 0; l < recordSize/lineSize; l++ {
		fillLine(rec[l*lineSize:(l+1)*lineSize], seed, worker, seq, l)
	}
}

// recordID names one appended record.
type recordID struct {
	worker, seq uint32
}

// checkRecords verifies buf, read at file offset off (both multiples
// of lineSize), against the record format. valid decides whether a
// record identity may appear at record index rec. It returns the
// identities of the records buf overlaps, in file order.
func checkRecords(buf []byte, off int64, seed uint64, valid func(id recordID, rec int64) bool) ([]recordID, error) {
	if off%lineSize != 0 || len(buf)%lineSize != 0 {
		return nil, fmt.Errorf("unaligned check window [%d,+%d)", off, len(buf))
	}
	var ids []recordID
	want := make([]byte, lineSize)
	curRec := int64(-1)
	for i := 0; i < len(buf); i += lineSize {
		pos := off + int64(i)
		rec, l := pos/recordSize, int((pos%recordSize)/lineSize)
		line := buf[i : i+lineSize]
		id := recordID{worker: uint32(binary.LittleEndian.Uint16(line[4:])), seq: binary.LittleEndian.Uint32(line[8:])}
		if binary.LittleEndian.Uint32(line[0:]) != recordMagic ||
			binary.LittleEndian.Uint32(line[12:]) != recordSize ||
			int(binary.LittleEndian.Uint16(line[6:])) != l {
			return ids, fmt.Errorf("torn or misplaced record bytes at offset %d", pos)
		}
		if rec != curRec {
			if !valid(id, rec) {
				return ids, fmt.Errorf("record %d at offset %d was never appended there", rec, pos)
			}
			ids = append(ids, id)
			curRec = rec
		} else if id != ids[len(ids)-1] {
			return ids, fmt.Errorf("record %d mixes writers at offset %d", rec, pos)
		}
		fillLine(want, seed, id.worker, id.seq, l)
		if !bytes.Equal(line, want) {
			return ids, fmt.Errorf("record %d payload mismatch at offset %d", rec, pos)
		}
	}
	return ids, nil
}

// ledger tracks every append the workers issued: the sequence numbers
// handed out, and each append's outcome and phase.
type ledger struct {
	issued [workers]atomic.Uint32
	mu     sync.Mutex
	byID   map[recordID]appendOutcome
}

type appendOutcome struct {
	acked bool
	phase *phase // nil when issued outside a measured window
}

func (l *ledger) next(worker int) uint32 { return l.issued[worker].Add(1) - 1 }

func (l *ledger) record(id recordID, acked bool, p *phase) {
	l.mu.Lock()
	if l.byID == nil {
		l.byID = make(map[recordID]appendOutcome)
	}
	l.byID[id] = appendOutcome{acked: acked, phase: p}
	l.mu.Unlock()
}

// validIn returns the check of which records a reader of shared file f
// may see at record index rec: populate's records at their own index,
// and records issued by f's appender.
func (l *ledger) validIn(f int) func(id recordID, rec int64) bool {
	return func(id recordID, rec int64) bool {
		if id.worker == setupWorker {
			return int64(id.seq) == rec && id.seq < initRecords
		}
		return id.worker == uint32(f) && id.seq < l.issued[f].Load()
	}
}

// Failure classes counted against attempted operations.
const (
	failUnaligned = "unaligned" // vmanager.ErrUnaligned: append onto an unaligned EOF
	failBadRange  = "bad_range" // vmanager.ErrBadRange: merged-tail write rejected
	failPruned    = "pruned"    // vmanager.ErrPruned: reader's snapshot was collected
	failLost      = "lost"      // acked append missing from the final file
	failMismatch  = "mismatch"  // wrong bytes read
	failOther     = "other"
)

var failClasses = []string{failUnaligned, failBadRange, failPruned, failLost, failMismatch, failOther}

func classify(err error) string {
	switch {
	case errors.Is(err, errMismatch):
		return failMismatch
	case errors.Is(err, vmanager.ErrUnaligned):
		return failUnaligned
	case errors.Is(err, vmanager.ErrBadRange):
		return failBadRange
	case errors.Is(err, vmanager.ErrPruned):
		return failPruned
	}
	return failOther
}

// runner drives one phase's workers against a client stack.
type runner struct {
	w    *workload
	st   *stack
	cur  atomic.Pointer[phase] // nil outside the measured window
	stop chan struct{}

	stored   func() int64 // bytes the data providers hold
	spans    func(ctx context.Context) (context.Context, func(p *phase, calls []interval, ops int))
	opsDone  atomic.Int64
	gcKick   chan struct{}
	mismatch *mismatchLog
}

// mismatchLog counts wrong-byte reads over the whole run (warm-up
// included) and keeps the first few for the report.
type mismatchLog struct {
	n     atomic.Int64
	mu    sync.Mutex
	first []string
}

func (m *mismatchLog) add(where string, err error) {
	m.n.Add(1)
	m.mu.Lock()
	if len(m.first) < 5 {
		m.first = append(m.first, where+": "+err.Error())
	}
	m.mu.Unlock()
}

func (r *runner) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// opDone counts a completed op and kicks the GC loop every gcEvery ops.
func (r *runner) opDone() {
	if r.opsDone.Add(1)%gcEvery == 0 && r.gcKick != nil {
		select {
		case r.gcKick <- struct{}{}:
		default:
		}
	}
}

func (r *runner) worker(ctx context.Context, id int, rng *rand.Rand) {
	buf := make([]byte, max(blockSize, recordSize))
	for !r.stopped() {
		switch r.w.kind {
		case kindScan:
			r.scanPass(ctx, rng, buf[:blockSize])
		case kindRandomRead:
			r.randomRead(ctx, rng, buf[:randomReadSize])
		case kindAppendRead:
			if rng.IntN(100) < appendPercent {
				r.appendRecord(ctx, id, buf[:recordSize])
			} else {
				r.readRecords(ctx, rng, buf[:recordSize])
			}
		}
	}
}

// interval is one timed client call, in Unix nanoseconds.
type interval struct{ start, end int64 }

func span(t0 time.Time) interval { return interval{t0.UnixNano(), time.Now().UnixNano()} }

// scanPass opens one working-set file and reads it end to end in
// block-sized reads; each read is one op.
func (r *runner) scanPass(ctx context.Context, rng *rand.Rand, buf []byte) {
	f := rng.IntN(workingFiles)
	p := r.cur.Load()
	ctx, done := r.spans(ctx)
	var calls []interval
	t0 := time.Now()
	rd, err := r.st.fs.Open(ctx, workingPath(f))
	calls = append(calls, span(t0))
	p.openDone(t0)
	if err != nil {
		p.readDone(0, 0, err)
		return
	}
	ops := 0
	for off := int64(0); off < workingFileSize && !r.stopped(); off += blockSize {
		op := r.cur.Load()
		t1 := time.Now()
		n, err := io.ReadFull(rd, buf)
		calls = append(calls, span(t1))
		d := time.Since(t1)
		if err == nil && !bytes.Equal(buf[:n], r.w.expected[f][off:off+int64(n)]) {
			err = errMismatch
			r.mismatch.add(fmt.Sprintf("scan %s offset %d", workingPath(f), off), err)
		}
		op.readDone(d, n, err)
		r.opDone()
		if op == p {
			ops++
		}
		if err != nil {
			break
		}
	}
	t2 := time.Now()
	err = rd.Close()
	calls = append(calls, span(t2))
	p.closeDone(t2)
	p.noteReader(rd)
	if err != nil {
		p.readDone(0, 0, err)
	}
	if p != nil {
		done(p, calls, ops)
	}
}

var errMismatch = errors.New("read returned wrong bytes")

// randomRead is one op: open a working-set file, read 64 KB at a
// uniform random offset, close.
func (r *runner) randomRead(ctx context.Context, rng *rand.Rand, buf []byte) {
	f := rng.IntN(workingFiles)
	off := rng.Int64N(workingFileSize - randomReadSize + 1)
	p := r.cur.Load()
	ctx, done := r.spans(ctx)
	t0 := time.Now()
	n, err := r.readFile(ctx, p, workingPath(f), buf, func(int64) int64 { return off })
	d := time.Since(t0)
	if err == nil && !bytes.Equal(buf, r.w.expected[f][off:off+randomReadSize]) {
		err = errMismatch
		r.mismatch.add(fmt.Sprintf("random-read %s offset %d", workingPath(f), off), err)
	}
	p.readDone(d, n, err)
	r.opDone()
	if p != nil {
		done(p, []interval{span(t0)}, 1)
	}
}

// readFile opens path, reads len(buf) bytes at the offset pick chooses
// from the pinned snapshot's size, and closes.
func (r *runner) readFile(ctx context.Context, p *phase, path string, buf []byte, pick func(size int64) int64) (int, error) {
	t0 := time.Now()
	rd, err := r.st.fs.Open(ctx, path)
	p.openDone(t0)
	if err != nil {
		return 0, err
	}
	n, err := readRange(rd, buf, pick)
	t1 := time.Now()
	cerr := rd.Close()
	p.closeDone(t1)
	p.noteReader(rd)
	if err == nil {
		err = cerr
	}
	return n, err
}

func readRange(rd fs.Reader, buf []byte, pick func(size int64) int64) (int, error) {
	size, err := rd.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if _, err := rd.Seek(pick(size), io.SeekStart); err != nil {
		return 0, err
	}
	return io.ReadFull(rd, buf)
}

// readRecords is append-read's read op: open a shared file, read one
// record-sized window at a random 64-byte-aligned offset of the pinned
// snapshot, close, and check every record the window overlaps.
func (r *runner) readRecords(ctx context.Context, rng *rand.Rand, buf []byte) {
	f := rng.IntN(appendFiles)
	p := r.cur.Load()
	ctx, done := r.spans(ctx)
	var off int64
	t0 := time.Now()
	n, err := r.readFile(ctx, p, sharedPath(f), buf, func(size int64) int64 {
		off = lineSize * rng.Int64N((size-recordSize)/lineSize+1)
		return off
	})
	d := time.Since(t0)
	if err == nil {
		if _, cerr := checkRecords(buf, off, r.w.seed, r.w.ledger.validIn(f)); cerr != nil {
			r.mismatch.add("append-read "+sharedPath(f), cerr)
			err = errMismatch
		}
	}
	p.readDone(d, n, err)
	r.opDone()
	if p != nil {
		done(p, []interval{span(t0)}, 1)
	}
}

// appendRecord is append-read's append op: Append, write one 64 KB
// record to the worker's own shared file, Close. Its latency runs until
// Close returns, i.e. until the version is published and acknowledged.
//
// Each file has a single appender because two concurrent appends onto
// one unaligned tail both rewrite it, and the version manager accepts
// both, so one acked record is silently overwritten. Readers still read
// both files while their appender publishes.
func (r *runner) appendRecord(ctx context.Context, worker int, rec []byte) {
	f := worker
	id := recordID{worker: uint32(worker), seq: r.w.ledger.next(worker)}
	fillRecord(rec, r.w.seed, id.worker, id.seq)
	p := r.cur.Load()
	ctx, done := r.spans(ctx)
	t0 := time.Now()
	wr, err := r.st.fs.Append(ctx, sharedPath(f))
	p.openDone(t0)
	if err == nil {
		_, err = wr.Write(rec)
		t1 := time.Now()
		cerr := wr.Close()
		p.closeDone(t1)
		if err == nil {
			err = cerr
		}
	}
	d := time.Since(t0)
	r.w.ledger.record(id, err == nil, p)
	p.appendDone(d, len(rec), err)
	r.opDone()
	if p != nil {
		done(p, []interval{span(t0)}, 1)
	}
}

// gcLoop is append-read's version collector: every gcEvery completed
// ops it prunes each shared file to its newest gcKeepVersions versions
// with core.Client.GC, timing each call.
func (r *runner) gcLoop(ctx context.Context) error {
	blobs := make([]*core.Blob, appendFiles)
	for f := range blobs {
		b, err := r.st.fs.OpenBlob(ctx, sharedPath(f))
		if err != nil {
			return err
		}
		blobs[f] = b
	}
	kept := &r.w.gcKept
	for {
		select {
		case <-r.stop:
			return nil
		case <-r.gcKick:
		}
		for f, b := range blobs {
			s, err := b.Latest(ctx)
			if err != nil {
				return err
			}
			if s.Version() <= gcKeepVersions {
				continue
			}
			keep := s.Version() - gcKeepVersions + 1
			if keep <= kept[f] {
				continue
			}
			p := r.cur.Load()
			t0 := time.Now()
			st, err := r.st.core.GC(ctx, b.ID(), keep)
			if err != nil {
				return fmt.Errorf("gc %s below version %d: %w", sharedPath(f), keep, err)
			}
			kept[f] = keep
			if p != nil {
				p.gcLat.add(time.Since(t0))
				p.gcFreed.Add(int64(st.BlocksFreed))
			}
		}
		if n := r.stored(); n > storedBytesCap {
			return fmt.Errorf("providers hold %d bytes, over the %d-byte cap", n, storedBytesCap)
		}
	}
}

// audit reads every shared file end to end after the run and settles
// each append: an acked append whose record is missing was lost (a
// failure of the phase that issued it); a record that appears twice, or
// that belongs to an append which returned an error, is a correctness
// violation.
func (w *workload) audit(ctx context.Context, fsys *bsfs.FS, mm *mismatchLog) error {
	seen := make(map[recordID]int)
	rec := make([]byte, recordSize)
	for f := 0; f < appendFiles; f++ {
		rd, err := fsys.Open(ctx, sharedPath(f))
		if err != nil {
			return fmt.Errorf("audit open: %w", err)
		}
		for off := int64(0); ; off += recordSize {
			_, err := io.ReadFull(rd, rec)
			if err == io.EOF {
				break
			}
			if err == io.ErrUnexpectedEOF {
				mm.add("audit "+sharedPath(f), fmt.Errorf("file ends inside a record at offset %d", off))
				break
			}
			if err != nil {
				rd.Close()
				return fmt.Errorf("audit read %s at %d: %w", sharedPath(f), off, err)
			}
			ids, cerr := checkRecords(rec, off, w.seed, w.ledger.validIn(f))
			if cerr != nil {
				mm.add("audit "+sharedPath(f), cerr)
				break
			}
			if id := ids[0]; id.worker != setupWorker { // populate's records are pinned by position
				seen[id]++
			}
		}
		if err := rd.Close(); err != nil {
			return fmt.Errorf("audit close: %w", err)
		}
	}
	for id, n := range seen {
		if n > 1 {
			mm.add("audit", fmt.Errorf("record %d/%d appears %d times", id.worker, id.seq, n))
		}
	}
	w.ledger.mu.Lock()
	defer w.ledger.mu.Unlock()
	for id, out := range w.ledger.byID {
		switch {
		case out.acked && seen[id] == 0:
			out.phase.failClass(failLost)
		case !out.acked && seen[id] > 0:
			mm.add("audit", fmt.Errorf("record %d/%d of a failed append is visible", id.worker, id.seq))
		}
	}
	return nil
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
