package main

import (
	"runtime/debug"
	"time"
)

// Host-speed calibration of the untraced run.
//
// A shared or virtualized host runs the same code faster or slower by tens of
// percent from one minute to the next as other tenants of the machine come
// and go, so two runs of the same code at different times can disagree by
// more than a regression worth catching. The untraced run therefore times a
// fixed kernel between calls, every calEvery, and rescales each wall time it
// reports (a call, a set-up) to the host speed at which the kernel takes
// kernelRef: the time is multiplied by kernelRef over the median of the last
// calWindow kernel times. The kernel makes pseudo-random read-modify-writes
// over a 2 MiB table, so it feels the cache and memory contention that slows
// the library's allocation-heavy runs, and allocates nothing, so the code
// under test cannot change its timing through the collector. The unscaled
// figures are printed in the detail line.
const (
	kernelWords = 1 << 18 // the kernel's table: 2 MiB of uint64
	kernelIters = 300_000
	// kernelRef is the kernel's time at the reference speed, about its
	// median on the 2 vCPU Intel Xeon VM the benchmark was written on, so
	// that the rescaled figures read close to wall times there.
	kernelRef = 2.5e-3
	calEvery  = 100 * time.Millisecond
	calWindow = 5
)

// kernel is the calibration work: a xorshift walk over t.
func kernel(t []uint64) {
	mask := uint64(len(t) - 1)
	x := uint64(0x9e3779b97f4a7c15)
	for range kernelIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i := x & mask
		t[i] += x
		t[(i*7+1)&mask] ^= t[i] >> 3
	}
}

// calibrator keeps the kernel times of a run and the current scale factor.
type calibrator struct {
	table []uint64
	times []float64
	scale float64 // kernelRef over the median of the last calWindow times
	next  time.Time
}

// newCalibrator faults the kernel's table in and takes a full window of
// samples, so the scale is defined before the first timing it rescales. The
// table lies outside the Go heap where the platform allows, so that it does
// not count toward the live heap of the code under test.
func newCalibrator() *calibrator {
	c := &calibrator{table: kernelTable()}
	kernel(c.table)
	for range calWindow {
		c.sample()
	}
	return c
}

// sample times the kernel once and updates the scale. It first lets a
// collection in progress finish (debug.SetGCPercent(-1) waits for it), so
// the kernel never shares the processor with the collector; since it
// allocates nothing, no collection starts while it runs.
func (c *calibrator) sample() {
	gcPercent := debug.SetGCPercent(-1)
	t0 := time.Now()
	kernel(c.table)
	c.times = append(c.times, time.Since(t0).Seconds())
	debug.SetGCPercent(gcPercent)
	c.scale = kernelRef / median(c.times[max(0, len(c.times)-calWindow):])
	c.next = time.Now().Add(calEvery)
}

// tick samples if calEvery has passed since the last sample.
func (c *calibrator) tick() {
	if time.Now().After(c.next) {
		c.sample()
	}
}

// summary describes the run's kernel times for the detail line.
func (c *calibrator) summary() map[string]any {
	return map[string]any{
		"kernel_ref_s": kernelRef, "samples": len(c.times),
		"kernel_p10_s": percentile(c.times, 10), "kernel_p50_s": median(c.times),
		"kernel_p90_s": percentile(c.times, 90),
	}
}
