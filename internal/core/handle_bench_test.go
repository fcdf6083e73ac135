package core_test

import (
	"context"
	"io"
	"math/rand/v2"
	"testing"

	"blobseer/internal/cluster"
	"blobseer/internal/core"
)

// benchSnapshot deploys a small cluster, publishes a blob of nBlocks
// blocks of blockSize bytes and returns a pinned snapshot plus the
// flat client. With metered set the client carries a live metrics
// registry, so the instrumented hot path is measured instead of the
// no-op one.
func benchSnapshot(b *testing.B, nBlocks int, blockSize int64, metered bool) (*core.Client, *core.Snapshot) {
	b.Helper()
	cl, err := cluster.StartBlobSeer(cluster.Config{
		DataProviders: 4,
		MetaProviders: 2,
		BlockSize:     blockSize,
		MetaCacheSize: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Stop)
	ctx := context.Background()
	var c *core.Client
	if metered {
		c, _ = cl.NewMeteredClient("", "bench")
	} else {
		c = cl.NewClient("")
	}
	bh, err := c.CreateBlob(ctx, blockSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bh.Write(ctx, 0, pattern('b', nBlocks*int(blockSize))); err != nil {
		b.Fatal(err)
	}
	s, err := bh.Latest(ctx)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the immutable-node cache so both paths measure steady state.
	buf := make([]byte, s.Size())
	if _, err := s.ReadAt(buf, 0); err != nil && err != io.EOF {
		b.Fatal(err)
	}
	return c, s
}

// BenchmarkSnapshotReadAt measures repeated pinned-snapshot reads into
// a caller-owned buffer: zero whole-range intermediate allocations and
// zero per-call metadata round-trips. Compare allocs/op against
// BenchmarkFlatRead.
func BenchmarkSnapshotReadAt(b *testing.B) {
	benchmarkSnapshotReadAt(b, false)
}

// BenchmarkSnapshotReadAtMetered is the instrumented twin of
// BenchmarkSnapshotReadAt: the same workload through a client wired to
// a live metrics registry, so every read times Resolve and bumps the
// cache/stream counters. The delta between the two pins the hot-path
// cost of instrumentation; it must stay in the noise (<5%).
func BenchmarkSnapshotReadAtMetered(b *testing.B) {
	benchmarkSnapshotReadAt(b, true)
}

func benchmarkSnapshotReadAt(b *testing.B, metered bool) {
	const nBlocks = 8
	_, s := benchSnapshot(b, nBlocks, B, metered)
	buf := make([]byte, s.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAt(buf, 0); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
	b.SetBytes(s.Size())
}

// BenchmarkFlatRead measures the same workload through the flat
// compatibility shim, which allocates a fresh whole-range buffer and
// re-resolves the version on every call.
func BenchmarkFlatRead(b *testing.B) {
	const nBlocks = 8
	c, s := benchSnapshot(b, nBlocks, B, false)
	ctx := context.Background()
	id, v, size := s.Blob().ID(), s.Version(), s.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(ctx, id, v, 0, size); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(size)
}

// BenchmarkReaderRandom64K measures the streaming reader on random
// access: each iteration opens a reader with the default readahead
// window over 1 MB blocks, seeks to a random offset, reads 64 KB and
// closes. B/op tracks the bytes the reader moves per 64 KB returned.
func BenchmarkReaderRandom64K(b *testing.B) {
	const nBlocks, blockSize, readSize = 8, 1 << 20, 64 << 10
	_, s := benchSnapshot(b, nBlocks, blockSize, false)
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, readSize)
	b.SetBytes(readSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.NewReader(ctx, core.ReaderOptions{Readahead: 2})
		if _, err := r.Seek(rng.Int64N(s.Size()-readSize+1), io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}
