// Command perfbench is the repository's benchmark. It drives the library
// through its public entry points (agree.Sweep, agree.Run, agree.Serve,
// agree.Fuzz) on one seeded workload, checks every output, and prints the
// end-to-end metrics; with -trace 1 it instead re-drives the same inputs
// through the layers' own functions with a timing decorator at every layer
// boundary and prints the per-layer ledger. See README.md.
//
//	perfbench -workload campaign -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the result object; the line before it
// holds the host, the input digest, the sample counts and the figures before
// their host-speed rescaling.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// bench is one benchmark workload: a fixed cycle of seeded inputs, each
// executed by one public call.
type bench interface {
	// size is the number of inputs in the cycle.
	size() int
	// inputs is the generated input set, hashed into the input digest.
	inputs() any
	// warmups is how many inputs the set-up phase executes.
	warmups() int
	// tailPct is the call-time percentile reported as call_tail_ms. It is
	// fixed per workload so that runs stay comparable; a run measures until
	// at least ten calls lie beyond it.
	tailPct() float64
	// call executes input i through the public API.
	call(i int) any
	// check validates the output of input i and returns the items it
	// completed and the operations it attempted and failed.
	check(i int, out any) (items, attempted, failed int)
	// traced re-drives input i through the decorated layers.
	traced(i int, l *ledger) any
	// same reports how the re-driven output differs from the public one.
	same(i int, public, traced any) error
	// workers is the worker-pool size of a call (1 for sequential calls).
	workers() int
}

func newWorkload(name string, seed int64) (bench, error) {
	switch name {
	case "campaign":
		return newCampaign(seed), nil
	case "large-n":
		return newLargeN(seed), nil
	case "serve":
		return newServe(seed), nil
	case "fuzz":
		return newFuzz(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (campaign, large-n, serve, fuzz)", name)
}

// setupRepeats is how many times an untraced run sets up; setup_s is their
// median.
const setupRepeats = 21

func main() {
	name := flag.String("workload", "campaign", "workload: campaign, large-n, serve or fuzz")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger of a traced run instead of the end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally accumulates the correctness checks of a run.
type tally struct{ items, attempted, failed int }

func (t *tally) add(items, attempted, failed int) {
	t.items += items
	t.attempted += attempted
	t.failed += failed
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var cal *calibrator
	if !traced {
		// The untraced run uses one processor: the calls, their worker pools
		// and the collector share it, so the timings do not depend on how
		// much of a second CPU the host grants, and the single-threaded
		// calibration kernel measures the speed the calls see. The traced
		// run keeps every processor, so that its worker pools run in
		// parallel and their self times close against the wall time.
		runtime.GOMAXPROCS(1)
		cal = newCalibrator()
	}
	w, first, err := setUp(name, seed)
	if err != nil {
		return err
	}
	digest, err := digestOf(w.inputs())
	if err != nil {
		return err
	}
	detail := map[string]any{
		"workload": name, "seed": seed, "trace": traced,
		"host": host(), "inputs_digest": digest,
	}
	var res result
	if traced {
		res = measureTraced(w, seconds, detail)
	} else {
		rawSetups := []float64{first}
		setups := []float64{first * cal.scale}
		again := func() {
			_, d, _ := setUp(name, seed) // the first set-up succeeded
			rawSetups = append(rawSetups, d)
			setups = append(setups, d*cal.scale)
			runtime.GC() // the set-up's garbage stays out of the calls
		}
		if res, err = measure(w, seconds, cal, again, detail); err != nil {
			return err
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		detail["unscaled"].(map[string]float64)["setup_s"] = median(rawSetups)
		detail["setup_samples_s"] = setups
		detail["host_speed"] = cal.summary()
	}
	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp generates the workload's inputs and executes its warm-up inputs,
// which builds engines and fills caches, from a collected heap. It returns
// the workload and the seconds the set-up took.
func setUp(name string, seed int64) (bench, float64, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, 0, err
	}
	for i := range w.warmups() {
		w.check(i, w.call(i))
	}
	return w, time.Since(t0).Seconds(), nil
}

// memSample holds the allocation counters and the live heap size as of the
// last collection.
type memSample struct{ objects, bytes, live uint64 }

var memNames = []string{
	"/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes", "/gc/heap/live:bytes",
}

func readMem(buf []metrics.Sample) memSample {
	metrics.Read(buf)
	return memSample{
		objects: buf[0].Value.Uint64() + buf[1].Value.Uint64(),
		bytes:   buf[2].Value.Uint64(),
		live:    buf[3].Value.Uint64(),
	}
}

// measure runs the untraced closed loop: the next call starts when the
// previous one has returned and been checked, until seconds have passed and
// at least ten calls lie beyond the workload's tail percentile. A run that
// cannot collect them within three times seconds is invalid and reports no
// result. Only the calls are timed; allocations are counted over the calls
// alone. Between calls it samples the calibration kernel every calEvery and,
// at even intervals, calls setUpAgain so that the set-up samples share the
// calls' window rather than the run's first moment. Every call time is
// rescaled to the reference host speed (see calibrator).
//
// items_per_s and call_p50_ms are taken from the median call time of each
// input of the cycle rather than from the total and the pooled calls, and
// peak_heap_mb from the median live heap of each input (see peakLive), so
// that a moment's disturbance does not set them.
func measure(w bench, seconds float64, cal *calibrator, setUpAgain func(), detail map[string]any) (result, error) {
	buf := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		buf[i].Name = n
	}
	runtime.GC()
	var (
		t              tally
		calls          []float64
		rawCalls       []float64
		live           = make([][]float64, w.size())
		perInput       = make([][]float64, w.size())
		rawPerInput    = make([][]float64, w.size())
		itemsOf        = make([]int, w.size())
		objects, bytes uint64
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	giveUp := start.Add(time.Duration(3 * seconds * float64(time.Second)))
	every := time.Duration(seconds * float64(time.Second) / setupRepeats)
	nextSetUp := start.Add(every)
	pct := w.tailPct()
	for i := 0; time.Now().Before(deadline) || beyond(len(calls), pct) < 10; i++ {
		if now := time.Now(); now.After(giveUp) {
			return result{}, fmt.Errorf("%d calls in %.0f s leave %d beyond p%g, want 10",
				len(calls), 3*seconds, beyond(len(calls), pct), pct)
		} else if now.After(nextSetUp) && now.Before(deadline) {
			setUpAgain()
			nextSetUp = nextSetUp.Add(every)
		}
		cal.tick()
		in := i % w.size()
		m0 := readMem(buf)
		t0 := time.Now()
		out := w.call(in)
		d := time.Since(t0).Seconds()
		m1 := readMem(buf)
		objects += m1.objects - m0.objects
		bytes += m1.bytes - m0.bytes
		live[in] = append(live[in], float64(m1.live))
		rawCalls = append(rawCalls, d)
		rawPerInput[in] = append(rawPerInput[in], d)
		d *= cal.scale
		calls = append(calls, d)
		perInput[in] = append(perInput[in], d)
		items, attempted, failed := w.check(in, out)
		itemsOf[in] = items
		t.add(items, attempted, failed)
	}
	items := float64(max(t.items, 1))
	detail["calls"] = len(calls)
	detail["items"] = t.items
	detail["tail_percentile"] = pct
	detail["tail_samples_beyond"] = beyond(len(calls), pct)
	detail["input_p50_ms"] = inputMedians(perInput)
	detail["unscaled"] = map[string]float64{
		"items_per_s":  cycleRate(rawPerInput, itemsOf),
		"call_p50_ms":  median(inputMedians(rawPerInput)),
		"call_tail_ms": percentile(rawCalls, pct) * 1e3,
	}
	return result{
		Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed,
		Metrics: map[string]metric{
			"items_per_s":          {cycleRate(perInput, itemsOf), "1/s"},
			"call_p50_ms":          {median(inputMedians(perInput)), "ms"},
			"call_tail_ms":         {percentile(calls, pct) * 1e3, "ms"},
			"allocs_per_item":      {float64(objects) / items, "count"},
			"alloc_bytes_per_item": {float64(bytes) / items, "B"},
			"peak_heap_mb":         {peakLive(live) / 1e6, "MB"},
		},
	}, nil
}

// inputMedians is each input's median call time in milliseconds.
// call_p50_ms is their median: the cycle's middle input at its typical
// time. The median of all calls would instead fall on the edge between two
// inputs' populations whenever the cheaper inputs' slow calls (the ones a
// collection lands in) push it up, and move with how many there are.
func inputMedians(perInput [][]float64) []float64 {
	ms := make([]float64, 0, len(perInput))
	for _, ds := range perInput {
		if len(ds) > 0 {
			ms = append(ms, median(ds)*1e3)
		}
	}
	return ms
}

// peakLive is the largest of the inputs' median live heaps, the live heap
// being what the collector measured last before a call returned: the heap
// the input that holds the most typically leaves live. On one processor the
// collector marks slowly and whatever a call allocates meanwhile counts as
// live, so the pooled distribution's upper tail moves with the host's
// hiccups during a mark; each input's median does not.
func peakLive(live [][]float64) float64 {
	peak := 0.0
	for _, l := range live {
		if len(l) > 0 {
			peak = max(peak, median(l))
		}
	}
	return peak
}

// cycleRate is the rate of the median cycle: every input's items over its
// median call time.
func cycleRate(perInput [][]float64, itemsOf []int) float64 {
	var cycleItems, cycleSec float64
	for in, ds := range perInput {
		if len(ds) > 0 {
			cycleItems += float64(itemsOf[in])
			cycleSec += median(ds)
		}
	}
	return cycleItems / cycleSec
}

// measureTraced runs each input twice per iteration: once through the public
// API (untraced, the overhead baseline) and once re-driven through the
// decorated layers, whose output must match the public one exactly.
func measureTraced(w bench, seconds float64, detail map[string]any) result {
	runtime.GC()
	l := &ledger{}
	var (
		t                  tally
		calls              int
		publicSec, tracSec float64
		mismatches         []string
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		in := i % w.size()
		t0 := time.Now()
		pub := w.call(in)
		publicSec += time.Since(t0).Seconds()
		items, attempted, failed := w.check(in, pub)
		t1 := time.Now()
		tr := w.traced(in, l)
		tracSec += time.Since(t1).Seconds()
		if err := w.same(in, pub, tr); err != nil {
			failed = attempted
			if len(mismatches) < 5 {
				mismatches = append(mismatches, fmt.Sprintf("input %d: %v", in, err))
			}
		}
		t.add(items, attempted, failed)
		calls++
	}
	detail["calls"] = calls
	detail["items"] = t.items
	if len(mismatches) > 0 {
		detail["trace_mismatches"] = mismatches
	}
	m := layerMetrics(l, w, t.items, calls, tracSec, publicSec)
	return result{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: m}
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// beyond is the number of n samples that lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int { return n - int(math.Ceil(float64(n)*p/100)) }

func median(xs []float64) float64 { return percentile(xs, 50) }

// digestOf hashes the JSON form of a workload's generated inputs.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest inputs: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12]), nil
}

// host describes the machine and runtime settings a result was measured on.
func host() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "gogc": gogc, "os": runtime.GOOS + "/" + runtime.GOARCH,
	}
}
