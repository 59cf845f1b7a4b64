//go:build unix

package main

import (
	"syscall"
	"unsafe"
)

// kernelTable maps the calibration kernel's table outside the Go heap. The
// mapping lives as long as the process.
func kernelTable() []uint64 {
	b, err := syscall.Mmap(-1, 0, kernelWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint64, kernelWords)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), kernelWords)
}
