package store

import (
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
)

const memShards = 16

// MemStore is a sharded in-memory Store. Values are copied on Put and
// Get so callers can reuse buffers freely. Past a budget, large values
// (blocks) live off the Go heap (see arena), so a provider holding
// gigabytes resides in about that much memory, not twice it. Values
// are read only under their shard lock and freed once out of the map.
type MemStore struct {
	shards [memShards]memShard
	arena  *arena
}

type memShard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	s := &MemStore{arena: newArena()}
	for i := range s.shards {
		s.shards[i].m = make(map[string][]byte)
	}
	// Mapped memory is not the garbage collector's: unmap it once the
	// store is unreachable, closed or not.
	runtime.AddCleanup(s, func(a *arena) { a.close() }, s.arena)
	return s
}

func (s *MemStore) shard(key string) *memShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &s.shards[h.Sum32()%memShards]
}

// Put implements Store.
func (s *MemStore) Put(key string, val []byte) error {
	cp := s.arena.alloc(len(val))
	copy(cp, val)
	s.install(key, cp)
	return nil
}

// PutWriter implements Store. Frames accumulate in a private arena
// buffer whose ownership transfers to the store on Commit (no copy).
func (s *MemStore) PutWriter(key string) (BlockWriter, error) {
	w := newBufWriter(func(buf []byte) error {
		s.install(key, buf)
		return nil
	})
	w.alloc, w.free = s.arena.alloc, s.arena.release
	return w, nil
}

// install maps key to v and frees the value it replaces.
func (s *MemStore) install(key string, v []byte) {
	sh := s.shard(key)
	sh.mu.Lock()
	old, had := sh.m[key]
	sh.m[key] = v
	sh.mu.Unlock()
	if had {
		s.arena.release(old)
	}
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, error) {
	return s.GetRange(key, 0, -1)
}

// GetRange implements Store. The copy is made under the shard lock: a
// concurrent Delete may free the value the moment the lock drops.
func (s *MemStore) GetRange(key string, off, length int64) ([]byte, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.m[key]
	if !ok {
		return nil, ErrNotFound
	}
	o, l := clampRange(int64(len(v)), off, length)
	return append([]byte(nil), v[o:o+l]...), nil
}

// Has implements Store.
func (s *MemStore) Has(key string) bool {
	sh := s.shard(key)
	sh.mu.RLock()
	_, ok := sh.m[key]
	sh.mu.RUnlock()
	return ok
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	sh := s.shard(key)
	sh.mu.Lock()
	old, had := sh.m[key]
	delete(sh.m, key)
	sh.mu.Unlock()
	if had {
		s.arena.release(old)
	}
	return nil
}

// DeletePrefix implements Store.
func (s *MemStore) DeletePrefix(prefix string) (int, error) {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		var gone [][]byte
		sh.mu.Lock()
		for k, v := range sh.m {
			if strings.HasPrefix(k, prefix) {
				delete(sh.m, k)
				gone = append(gone, v)
			}
		}
		sh.mu.Unlock()
		for _, v := range gone {
			s.arena.release(v)
		}
		n += len(gone)
	}
	return n, nil
}

// Keys implements Store.
func (s *MemStore) Keys(prefix string) ([]string, error) {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.m {
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
		sh.mu.RUnlock()
	}
	return out, nil
}

// Stats implements Store.
func (s *MemStore) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Items += int64(len(sh.m))
		for _, v := range sh.m {
			st.Bytes += int64(len(v))
		}
		sh.mu.RUnlock()
	}
	return st
}

// Close implements Store. The arena's mappings go when the store
// becomes unreachable.
func (s *MemStore) Close() error { return nil }
