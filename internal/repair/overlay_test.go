package repair

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"blobseer/internal/blob"
)

func TestOverlayAddGetRemove(t *testing.T) {
	ctx := context.Background()
	o := NewOverlay(NewMemKV())
	k := blob.BlockKey{Blob: 3, Nonce: 0xabc, Seq: 7}

	got, err := o.Get(ctx, k)
	if err != nil || got != nil {
		t.Fatalf("Get on empty overlay = %v, %v", got, err)
	}
	if err := o.Add(ctx, k, []string{"p2", "p1"}); err != nil {
		t.Fatal(err)
	}
	got, err = o.Get(ctx, k)
	if err != nil || len(got) != 2 || got[0] != "p1" || got[1] != "p2" {
		t.Fatalf("Get = %v, %v; want sorted [p1 p2]", got, err)
	}
	// Merge: duplicates collapse, new addresses append.
	if err := o.Add(ctx, k, []string{"p2", "p3"}); err != nil {
		t.Fatal(err)
	}
	got, _ = o.Get(ctx, k)
	if len(got) != 3 {
		t.Fatalf("merged Get = %v, want 3 distinct addrs", got)
	}
	// Entries are per-block: a sibling key stays empty.
	other := blob.BlockKey{Blob: 3, Nonce: 0xabc, Seq: 8}
	if got, _ := o.Get(ctx, other); got != nil {
		t.Errorf("sibling key has entries: %v", got)
	}
	if err := o.Remove(ctx, k); err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Get(ctx, k); got != nil {
		t.Errorf("entry survived Remove: %v", got)
	}
	// Removing an absent entry is not an error (GC retries freely).
	if err := o.Remove(ctx, k); err != nil {
		t.Errorf("Remove of absent entry = %v", err)
	}
}

// TestOverlayConcurrentAddsConverge pins the verified read-merge-write:
// two writers adding different addresses for the same block (a repair
// daemon racing an operator's decommission) must both survive in the
// final entry.
func TestOverlayConcurrentAddsConverge(t *testing.T) {
	ctx := context.Background()
	o := NewOverlay(NewMemKV())
	// Two entries, eight adders each: Adds serialize per entry only.
	keys := []blob.BlockKey{{Blob: 9, Nonce: 9, Seq: 9}, {Blob: 9, Nonce: 9, Seq: 10}}
	var wg sync.WaitGroup
	for _, k := range keys {
		for i := 0; i < 8; i++ {
			addr := fmt.Sprintf("p%d", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := o.Add(ctx, k, []string{addr}); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	for _, k := range keys {
		got, err := o.Get(ctx, k)
		if err != nil || len(got) != 8 {
			t.Fatalf("%v after 8 concurrent Adds: %v, %v; want all 8 addresses", k, got, err)
		}
	}
	if len(o.adding) != 0 {
		t.Fatalf("%d per-key locks outlived their Adds", len(o.adding))
	}
}

func TestOverlayAddEmptyIsNoop(t *testing.T) {
	ctx := context.Background()
	kv := NewMemKV()
	o := NewOverlay(kv)
	k := blob.BlockKey{Blob: 1, Nonce: 1, Seq: 0}
	if err := o.Add(ctx, k, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Get(ctx, k); got != nil {
		t.Errorf("empty Add created an entry: %v", got)
	}
}
