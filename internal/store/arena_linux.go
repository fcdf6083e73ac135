package store

import "syscall"

// mapRegion maps n bytes of private anonymous memory. Pages count
// toward the process's resident set only once touched.
func mapRegion(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

func unmapRegion(b []byte) { _ = syscall.Munmap(b) }

// dropPages hands b's pages back to the OS; b stays mapped and reads
// as zeros until written again.
func dropPages(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }
