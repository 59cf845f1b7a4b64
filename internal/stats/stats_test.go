package stats_test

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSampleBasics(t *testing.T) {
	var s stats.Sample
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Max() != 0 {
		t.Error("empty sample not zeroed")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Errorf("N = %d, want 4", s.N())
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %g, want 2.5", s.Mean())
	}
	if s.Max() != 4 {
		t.Errorf("Max = %g, want 4", s.Max())
	}
	if want := math.Sqrt(1.25); math.Abs(s.StdDev()-want) > 1e-12 {
		t.Errorf("StdDev = %g, want %g", s.StdDev(), want)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestPercentile(t *testing.T) {
	var s stats.Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {99, 99}, {100, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	var empty stats.Sample
	if empty.Percentile(50) != 0 {
		t.Error("empty percentile not 0")
	}
}

// refPercentile is the reference nearest-rank percentile: copy, sort.Float64s,
// index. p must not be NaN.
func refPercentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// percentileProbes are the percentiles every differential case checks: the
// extremes, the smallest positive p, and the three Serve reports.
var percentileProbes = []float64{0, math.SmallestNonzeroFloat64, 50, 99, 99.9, 100}

// checkPercentiles compares Percentile against the reference at every probe
// and at extra, in the total order sort.Float64s uses: NaN equals NaN, and
// -0 equals +0 (the sort does not order them either).
func checkPercentiles(t *testing.T, name string, values []float64, extra ...float64) {
	t.Helper()
	var s stats.Sample
	for _, v := range values {
		s.Add(v)
	}
	for _, p := range append(percentileProbes, extra...) {
		if got, want := s.Percentile(p), refPercentile(values, p); cmp.Compare(got, want) != 0 {
			t.Fatalf("%s (n=%d): Percentile(%g) = %g, reference %g", name, len(values), p, got, want)
		}
	}
}

// specials are the values sort.Float64s orders specially or at the ends.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1}

// TestPercentileMatchesReference is the differential test of the selection
// against copy-sort-index on random inputs, random inputs seeded with NaN,
// ±Inf and ±0, and random percentiles.
func TestPercentileMatchesReference(t *testing.T) {
	f := func(raw []float64, picks []uint8, pRaw uint16) bool {
		values := append([]float64(nil), raw...)
		for i, k := range picks {
			v := specials[int(k)%len(specials)]
			if len(values) > 0 && i%2 == 0 {
				values[int(k)%len(values)] = v
			} else {
				values = append(values, v)
			}
		}
		checkPercentiles(t, "quick", values, float64(pRaw)/655.35)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPercentileShapes runs the differential on structured inputs, at sizes
// around the selection's small-range cutoff and well past it: all-equal,
// sorted, reverse-sorted, organ-pipe, few distinct values, and the sawtooth
// Serve produces (within each committed batch, later arrivals wait less, so
// latencies descend).
func TestPercentileShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shapes := map[string]func(i, n int) float64{
		"equal":    func(i, n int) float64 { return 3 },
		"sorted":   func(i, n int) float64 { return float64(i) },
		"reverse":  func(i, n int) float64 { return float64(n - i) },
		"organ":    func(i, n int) float64 { return float64(min(i, n-i)) },
		"few":      func(i, n int) float64 { return float64(rng.IntN(3)) },
		"sawtooth": func(i, n int) float64 { return float64(i/256%5) + float64(255-i%256)*1e-3 },
		"random":   func(i, n int) float64 { return rng.NormFloat64() },
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 3, 12, 13, 14, 100, 257, 1000, 4099} {
			values := make([]float64, n)
			for i := range values {
				values[i] = shape(i, n)
			}
			checkPercentiles(t, name, values, 25, 75, 90)
		}
	}
}

// TestPercentileNaN pins the result for a NaN percentile: NaN, on empty and
// non-empty samples alike, where the rank computation used to overflow.
func TestPercentileNaN(t *testing.T) {
	var s stats.Sample
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("empty Percentile(NaN) = %g, want NaN", got)
	}
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN) = %g, want NaN", got)
	}
	if got := s.Percentile(50); got != 2 {
		t.Errorf("Percentile(50) after a NaN query = %g, want 2", got)
	}
}

// TestPercentileLeavesSampleIntact checks that the selection works on a copy:
// a percentile query neither reorders nor drops observations, and Add after
// a query extends the sample seen by the next one.
func TestPercentileLeavesSampleIntact(t *testing.T) {
	var s stats.Sample
	for _, v := range []float64{5, 4, 3, 2, 1} {
		s.Add(v)
	}
	if s.Percentile(100) != 5 || s.Percentile(0) != 1 {
		t.Fatal("extremes wrong")
	}
	s.Add(0)
	if got := s.Percentile(0); got != 0 {
		t.Errorf("Percentile(0) after Add(0) = %g, want 0", got)
	}
	if s.N() != 6 || s.Max() != 5 || s.Mean() != 2.5 {
		t.Errorf("sample changed under Percentile: n=%d max=%g mean=%g", s.N(), s.Max(), s.Mean())
	}
}

// FuzzPercentile differentially fuzzes Percentile against the reference:
// data is read as little-endian float64 bit patterns, so NaN payloads, ±Inf,
// ±0 and subnormals all occur.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{}, 50.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		values := make([]float64, len(data)/8)
		for i := range values {
			values[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var s stats.Sample
		for _, v := range values {
			s.Add(v)
		}
		got := s.Percentile(p)
		if math.IsNaN(p) {
			if !math.IsNaN(got) {
				t.Fatalf("Percentile(NaN) = %g, want NaN", got)
			}
			return
		}
		if want := refPercentile(values, p); cmp.Compare(got, want) != 0 {
			t.Fatalf("n=%d: Percentile(%g) = %g, reference %g", len(values), p, got, want)
		}
	})
}

// BenchmarkSamplePercentile prices the Serve reporting layer: the p50, p99
// and p99.9 of a 100k-observation sawtooth latency sample (batches of 256,
// descending within each batch), as Serve reports them.
func BenchmarkSamplePercentile(b *testing.B) {
	var s stats.Sample
	for i := range 100000 {
		s.Add(float64(i/256%7)*0.1 + float64(255-i%256)*1e-3)
	}
	b.ReportAllocs()
	for b.Loop() {
		s.Percentile(50)
		s.Percentile(99)
		s.Percentile(99.9)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		var s stats.Sample
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return s.Percentile(a) <= s.Percentile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanWithinMinMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s stats.Sample
		min, max := float64(raw[0]), float64(raw[0])
		for _, v := range raw {
			fv := float64(v)
			s.Add(fv)
			if fv < min {
				min = fv
			}
			if fv > max {
				max = fv
			}
		}
		return s.Mean() >= min && s.Mean() <= max && s.Max() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := stats.NewHistogram()
	for _, v := range []int{1, 1, 2, 3, 3, 3} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
	if h.Count(3) != 3 || h.Count(2) != 1 || h.Count(9) != 0 {
		t.Errorf("counts wrong: %v", h.String())
	}
	if got := h.Fraction(1); math.Abs(got-2.0/6) > 1e-12 {
		t.Errorf("Fraction(1) = %g", got)
	}
	keys := h.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Errorf("Keys = %v", keys)
	}
	if h.String() != "1:2 2:1 3:3" {
		t.Errorf("String = %q", h.String())
	}
	empty := stats.NewHistogram()
	if empty.Fraction(1) != 0 {
		t.Error("empty fraction not 0")
	}
}
