package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// offHeapStore returns a MemStore whose large values all go off-heap.
func offHeapStore(t *testing.T) *MemStore {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("off-heap values are Linux-only")
	}
	s := NewMemStore()
	s.arena.heapBudget = 0
	return s
}

func TestArenaHeapBudgetThenRegions(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("off-heap values are Linux-only")
	}
	a := newArena()
	a.heapBudget = 3 * arenaMinValue
	var onHeap, offHeap int
	for i := 0; i < 5; i++ {
		if a.inRegion(a.alloc(arenaMinValue)) {
			offHeap++
		} else {
			onHeap++
		}
	}
	if onHeap != 3 || offHeap != 2 {
		t.Fatalf("heap/off-heap split = %d/%d, want 3/2 under a 3-value budget", onHeap, offHeap)
	}
	if small := a.alloc(arenaMinValue - 1); a.inRegion(small) {
		t.Fatal("a value below arenaMinValue went off-heap")
	}
}

func TestArenaReusesFreedChunks(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("off-heap values are Linux-only")
	}
	a := newArena()
	a.heapBudget = 0
	b := a.alloc(100 << 10) // rounds up to a 128 KB chunk
	if cap(b) != 128<<10 {
		t.Fatalf("cap = %d, want 128 KB", cap(b))
	}
	a.release(b)
	if again := a.alloc(120 << 10); &again[0] != &b[0] {
		t.Fatal("a freed chunk of the same capacity was not reused")
	}
	if other := a.alloc(200 << 10); &other[0] == &b[0] {
		t.Fatal("a chunk was handed out twice")
	}
}

func TestArenaHugeValueGetsItsOwnMapping(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("off-heap values are Linux-only")
	}
	a := newArena()
	a.heapBudget = 0
	b := a.alloc(arenaRegion + 1)
	b[len(b)-1] = 7
	if !a.inRegion(b) || len(a.regions) != 1 || cap(a.regions[0]) < arenaRegion+1 {
		t.Fatalf("a value larger than a region: off-heap %v, mappings %d", a.inRegion(b), len(a.regions))
	}
	a.release(b)
	if again := a.alloc(arenaRegion + 1); &again[0] != &b[0] {
		t.Fatal("a freed huge chunk was not reused")
	}
}

func TestArenaDropsPagesPastKeepFree(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("off-heap values are Linux-only")
	}
	a := newArena()
	a.heapBudget = 0
	const n = 1 << 20
	var held [][]byte
	for i := 0; i < arenaKeepFree/n+1; i++ {
		b := a.alloc(n)
		for j := range b {
			b[j] = 0xff
		}
		held = append(held, b)
	}
	for _, b := range held {
		a.release(b)
	}
	if a.resident != arenaKeepFree {
		t.Fatalf("resident free bytes = %d, want the %d cap", a.resident, arenaKeepFree)
	}
	// The chunk freed past the cap went back to the OS: it is the
	// first one handed out again (LIFO), and it reads as zeros.
	b := a.alloc(n)
	if !bytes.Equal(b, make([]byte, n)) {
		t.Fatal("a chunk freed past the keep-free cap kept its pages")
	}
}

func TestMemStoreOffHeapValues(t *testing.T) {
	s := offHeapStore(t)
	big := func(tag byte, n int) []byte { return bytes.Repeat([]byte{tag}, n) }
	if err := s.Put("a", big('a', 300<<10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", big('b', 70<<10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", big('A', 90<<10)); err != nil { // frees the old "a"
		t.Fatal(err)
	}
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	// Recycled chunks are not zeroed: a hole an out-of-order frame
	// leaves must still read as zeros.
	w, err := s.PutWriter("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAt(big('z', 10<<10), 70<<10); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAt(big('y', 10), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	want := append(append(big('y', 10), make([]byte, 70<<10-10)...), big('z', 10<<10)...)
	if got, err := s.Get("c"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get(c) after out-of-order frames: err %v, equal %v", err, bytes.Equal(got, want))
	}
	if got, err := s.GetRange("a", 1000, 10); err != nil || !bytes.Equal(got, big('A', 10)) {
		t.Fatalf("GetRange(a) = %q, %v", got, err)
	}
	if _, err := s.Get("b"); err != ErrNotFound {
		t.Fatalf("Get(b) after Delete: %v", err)
	}
	if n, err := s.DeletePrefix(""); err != nil || n != 2 {
		t.Fatalf("DeletePrefix = %d, %v", n, err)
	}
	if st := s.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("Stats after DeletePrefix = %+v", st)
	}
}

// Readers racing overwrites and deletes of off-heap values must never
// see a value torn by chunk reuse: each value is one repeated byte.
func TestMemStoreOffHeapConcurrentReuse(t *testing.T) {
	s := offHeapStore(t)
	const keys, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprint(i % keys)
				tag := byte('a' + (i+w)%26)
				if i%7 == 0 {
					_ = s.Delete(k)
					continue
				}
				if err := s.Put(k, bytes.Repeat([]byte{tag}, (64+i%3*64)<<10)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, err := s.Get(fmt.Sprint(i % keys))
				if err == ErrNotFound {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(v) == 0 || !bytes.Equal(v, bytes.Repeat(v[:1], len(v))) {
					t.Errorf("Get returned a torn value of %d bytes", len(v))
					return
				}
			}
		}()
	}
	wg.Wait()
}
