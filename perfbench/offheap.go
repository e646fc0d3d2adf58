package main

import (
	"syscall"
	"unsafe"
)

// arena hands out zeroed arrays mapped outside the Go heap. The live
// workloads keep their per-message records (delivered-ID sums, completion
// flags, latency samples) there, so heap_peak_mb reads the heap of the
// brokers, clients and session, not the benchmark's own bookkeeping, whose
// size follows --seconds. The arrays must hold no pointers: the collector
// does not scan them.
type arena struct{ maps [][]byte }

// arenaSlice returns a zeroed slice of n elements from a.
func arenaSlice[T any](a *arena, n int) []T {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mmap " + err.Error())
	}
	a.maps = append(a.maps, b)
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// free unmaps every array a handed out; none may be used afterwards.
func (a *arena) free() {
	for _, b := range a.maps {
		_ = syscall.Munmap(b)
	}
	a.maps = nil
}
