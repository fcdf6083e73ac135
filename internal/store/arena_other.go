//go:build !linux

package store

import "errors"

// Off-heap values are Linux-only; elsewhere the arena's first mapping
// fails and every value stays on the Go heap.
func mapRegion(int) ([]byte, error) {
	return nil, errors.New("store: no off-heap arena on this platform")
}

func unmapRegion([]byte) {}

func dropPages([]byte) {}
