//go:build !unix

package main

func kernelTable() []uint64 { return make([]uint64, kernelWords) }
