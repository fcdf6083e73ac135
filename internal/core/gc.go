package core

import (
	"context"
	"fmt"
	"sync"

	"blobseer/internal/blob"
	"blobseer/internal/mdtree"
)

// GCStats summarizes one garbage-collection sweep.
type GCStats struct {
	From, To    blob.Version // versions discarded: [From, To)
	NodesFreed  int          // metadata tree nodes deleted
	BlocksFreed int          // data block replicas deleted
}

// GC discards every snapshot version below keep and reclaims the
// storage no kept version can reach (Section III-A1's version
// garbaging). The sweep is differential-aware: a block written by a
// pruned version survives if any kept snapshot still reads it through
// a shared subtree; only nodes and blocks hidden by later writes (or
// bridge nodes reachable solely from pruned roots) are deleted.
//
// The prune point is advanced at the version manager first, so
// concurrent readers of kept versions are never affected; a reader
// pinned below keep loses its snapshot — the paper's stated contract
// for garbaged versions.
func (c *Client) GC(ctx context.Context, id blob.ID, keep blob.Version) (GCStats, error) {
	deleter, ok := c.meta.(mdtree.Deleter)
	if !ok {
		return GCStats{}, fmt.Errorf("core: metadata store %T cannot delete nodes", c.meta)
	}
	m, err := c.Meta(ctx, id)
	if err != nil {
		return GCStats{}, err
	}
	// Full history: the liveness analysis needs every descriptor up to
	// the prune point (descriptors themselves are never discarded).
	descs, err := c.vm.History(ctx, id, 0)
	if err != nil {
		return GCStats{}, err
	}
	hist := &blob.History{}
	if err := hist.Extend(descs); err != nil {
		return GCStats{}, err
	}

	from, err := c.vm.Prune(ctx, id, keep)
	if err != nil {
		return GCStats{}, err
	}
	// Pruned versions must stop resolving through the size cache:
	// flat reads of a garbaged version report the version manager's
	// ErrPruned, not a stale read against deleted nodes.
	c.mu.Lock()
	for k := range c.sizes {
		if k.id == id && k.v < keep {
			delete(c.sizes, k)
		}
	}
	c.mu.Unlock()
	st := GCStats{From: from, To: keep}
	var dead []gcNode
	var planErr error
	for k := from; k < keep && planErr == nil; k++ {
		d, ok := hist.Desc(k)
		if !ok {
			planErr = fmt.Errorf("core: gc: history missing version %d", k)
			break
		}
		nodes, err := mdtree.DeadNodes(m, hist, k, keep)
		if err != nil {
			planErr = fmt.Errorf("core: gc of version %d: %w", k, err)
			break
		}
		for _, dn := range nodes {
			dead = append(dead, gcNode{id: dn.ID, freeData: dn.Leaf && !d.Aborted})
		}
	}
	// Dead nodes are independent of one another, so they are swept
	// gcSweepWidth at a time: one at a time, a pass costs several
	// round trips per node and falls behind a busy appender, leaving
	// dead blocks in provider memory.
	var mu sync.Mutex
	var sweepErr error
	sem := make(chan struct{}, gcSweepWidth)
	var wg sync.WaitGroup
	for _, n := range dead {
		mu.Lock()
		failed := sweepErr != nil
		mu.Unlock()
		if failed {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			blocks, err := c.sweepNode(ctx, deleter, n)
			mu.Lock()
			defer mu.Unlock()
			st.BlocksFreed += blocks
			if err == nil {
				st.NodesFreed++
			} else if sweepErr == nil {
				sweepErr = err
			}
		}()
	}
	wg.Wait()
	if sweepErr != nil {
		return st, sweepErr
	}
	return st, planErr
}

// gcSweepWidth bounds the dead nodes one GC call sweeps concurrently.
const gcSweepWidth = 16

// gcNode is one dead metadata node; freeData marks a leaf whose data
// block goes with it.
type gcNode struct {
	id       mdtree.NodeID
	freeData bool
}

// sweepNode deletes one dead node, and first its data block replicas
// if it owns one, returning how many replicas it freed.
func (c *Client) sweepNode(ctx context.Context, deleter mdtree.Deleter, n gcNode) (int, error) {
	freed := 0
	if n.freeData {
		// Free the data block first: once the leaf is gone there is no
		// other record of where the payload lives.
		node, err := c.meta.Get(ctx, n.id)
		if err == nil {
			for _, addr := range node.Block.Providers {
				if err := c.prov.Delete(ctx, addr, node.Block.Key); err == nil {
					freed++
				}
			}
			// Repair copies and their overlay record go with the
			// block: a dangling relocation entry would point readers
			// at storage the providers already reclaimed.
			if c.overlay != nil {
				extras, oerr := c.overlay.Get(ctx, node.Block.Key)
				if oerr == nil {
					for _, addr := range extras {
						if err := c.prov.Delete(ctx, addr, node.Block.Key); err == nil {
							freed++
						}
					}
					_ = c.overlay.Remove(ctx, node.Block.Key)
				}
			}
		}
	}
	if err := deleter.Delete(ctx, n.id); err != nil {
		return freed, fmt.Errorf("core: gc: delete node %s: %w", n.id.Key(), err)
	}
	return freed, nil
}
