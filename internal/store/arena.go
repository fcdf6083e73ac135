package store

import (
	"sync"
	"unsafe"
)

// Arena geometry. A value of at least arenaMinValue bytes goes to the
// Go heap while the store's heap-held large values fit in
// arenaHeapBudget, and off-heap otherwise. Off-heap values live in
// chunks whose capacity is rounded up to a multiple of arenaChunk,
// carved from arenaRegion-sized mappings (a larger value gets a
// mapping of its own size).
const (
	arenaMinValue   = 64 << 10
	arenaHeapBudget = 64 << 20
	arenaChunk      = 64 << 10
	arenaRegion     = 64 << 20
	// arenaKeepFree bounds the freed chunks an arena keeps resident
	// for reuse; pages of chunks freed beyond it go back to the OS (the
	// chunk stays on its free list and faults back in when reused).
	arenaKeepFree = 32 << 20
)

// arena allocates MemStore values. A store holding gigabytes of blocks
// on the Go heap makes the garbage collector size its heap goal to
// twice that, so the process grows to about twice what it stores;
// off-heap values count once. The first arenaHeapBudget bytes stay on
// the heap all the same: small stores then never map memory, and that
// much live heap keeps garbage collections of a busy data path as far
// apart as a heap of its size allows (with every block off-heap, the
// collector would run each time a few megabytes of frames were
// allocated).
//
// Freed chunks go to a free list per capacity and are handed out again
// before any new memory is mapped. A caller must not touch a value
// after freeing it: MemStore only reads values under its shard locks
// and frees a value once it is out of the map.
type arena struct {
	mu         sync.Mutex
	heapBudget int64           // arenaHeapBudget; tests lower it
	heapBytes  int64           // large values handed out from the heap
	regions    [][]byte        // every mapping, for close
	spare      []byte          // unused tail of the newest region
	free       map[int][]chunk // capacity -> freed chunks (LIFO)
	resident   int64           // bytes of freed chunks still resident
	heapOnly   bool            // mapping failed once: use the Go heap
}

type chunk struct {
	b        []byte
	resident bool
}

func newArena() *arena {
	return &arena{heapBudget: arenaHeapBudget, free: make(map[int][]chunk)}
}

// alloc returns an n-byte slice. Its contents are not zeroed.
func (a *arena) alloc(n int) []byte {
	if n < arenaMinValue {
		return make([]byte, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.heapOnly || a.heapBytes+int64(n) <= a.heapBudget {
		a.heapBytes += int64(n)
		return make([]byte, n)
	}
	c := (n + arenaChunk - 1) / arenaChunk * arenaChunk
	if fl := a.free[c]; len(fl) > 0 {
		ch := fl[len(fl)-1]
		a.free[c] = fl[:len(fl)-1]
		if ch.resident {
			a.resident -= int64(c)
		}
		return ch.b[:n]
	}
	if len(a.spare) < c {
		r, err := mapRegion(max(c, arenaRegion))
		if err != nil {
			return a.fallback(n)
		}
		// The old spare tail was never touched, so leaving it unused
		// costs address space only.
		a.regions = append(a.regions, r)
		a.spare = r
	}
	b := a.spare[:c:c]
	a.spare = a.spare[c:]
	return b[:n]
}

// fallback switches the arena to the Go heap for good once the OS
// refuses a mapping.
func (a *arena) fallback(n int) []byte {
	a.heapOnly = true
	a.heapBytes += int64(n)
	return make([]byte, n)
}

// release takes back a slice obtained from alloc.
func (a *arena) release(b []byte) {
	c := cap(b)
	if c < arenaMinValue {
		return
	}
	b = b[:c]
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inRegion(b) {
		a.heapBytes -= int64(c) // the garbage collector frees it
		return
	}
	resident := a.resident+int64(c) <= arenaKeepFree
	if resident {
		a.resident += int64(c)
	} else {
		dropPages(b)
	}
	a.free[c] = append(a.free[c], chunk{b: b, resident: resident})
}

// inRegion reports whether b was carved from one of the mappings.
func (a *arena) inRegion(b []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	for _, r := range a.regions {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(r)))
		if p >= lo && p < lo+uintptr(len(r)) {
			return true
		}
	}
	return false
}

// close unmaps everything; every off-heap slice the arena handed out is
// invalid afterwards. It runs once the owning store is unreachable.
func (a *arena) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.regions {
		unmapRegion(r)
	}
	a.regions, a.spare, a.free = nil, nil, nil
}
