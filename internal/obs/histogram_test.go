package obs

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// exactQuantile mirrors the histogram's rank rule on the raw samples:
// the order statistic at rank floor(q*n), clamped to the last sample.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(q * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// checkQuantiles observes samples and asserts that every estimated
// quantile lands within one log bucket of the exact order statistic —
// the histogram's accuracy contract.
func checkQuantiles(t *testing.T, name string, samples []int64) {
	t.Helper()
	h := &Histogram{}
	for _, v := range samples {
		h.Observe(v)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	for _, q := range []float64{0, 0.25, 0.50, 0.90, 0.99, 0.999, 1} {
		exact := exactQuantile(sorted, q)
		est := h.Quantile(q)
		be, bx := bucketOf(est), bucketOf(uint64(exact))
		if d := be - bx; d < -1 || d > 1 {
			t.Errorf("%s: q=%v: estimate %d (bucket %d) vs exact %d (bucket %d): off by %d buckets",
				name, q, est, be, exact, bx, d)
		}
	}
	if got := h.Count(); got != uint64(len(samples)) {
		t.Errorf("%s: count = %d, want %d", name, got, len(samples))
	}
	snap := h.Snapshot()
	if snap.Max != uint64(sorted[len(sorted)-1]) {
		t.Errorf("%s: max = %d, want %d", name, snap.Max, sorted[len(sorted)-1])
	}
}

func TestHistogramQuantileBucketsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]int64, 50_000)
	for i := range samples {
		samples[i] = rng.Int63n(10_000_000) // 0..10ms in ns
	}
	checkQuantiles(t, "uniform", samples)
}

func TestHistogramQuantileBucketsZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := rand.NewZipf(rng, 1.2, 1, 1<<40)
	samples := make([]int64, 50_000)
	for i := range samples {
		samples[i] = int64(z.Uint64())
	}
	checkQuantiles(t, "zipf", samples)
}

func TestHistogramQuantileBucketsPointMass(t *testing.T) {
	samples := make([]int64, 10_000)
	for i := range samples {
		samples[i] = 123_456
	}
	checkQuantiles(t, "point-mass", samples)
	// A point mass must report the same bucket at every quantile.
	h := &Histogram{}
	for _, v := range samples {
		h.Observe(v)
	}
	if p50, p999 := h.Quantile(0.5), h.Quantile(0.999); p50 != p999 {
		t.Errorf("point mass: p50 %d != p999 %d", p50, p999)
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	// Buckets 0..15 are exact: a histogram of small values is lossless.
	h := &Histogram{}
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct {
		q    float64
		want uint64
	}{{0, 0}, {0.5, 8}, {1, 15}} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := &Histogram{}
	h.Observe(-5)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("negative sample landed at %d, want bucket 0", got)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// bucketHigh(i) must be the largest value mapping to bucket i, and
	// bucketHigh(i)+1 must map to bucket i+1 — no gaps, no overlaps.
	for i := 0; i < numBuckets-1; i++ {
		hi := bucketHigh(i)
		if got := bucketOf(hi); got != i {
			t.Fatalf("bucketOf(bucketHigh(%d)=%d) = %d", i, hi, got)
		}
		if got := bucketOf(hi + 1); got != i+1 {
			t.Fatalf("bucketOf(%d) = %d, want %d", hi+1, got, i+1)
		}
	}
	if got := bucketOf(^uint64(0)); got != numBuckets-1 {
		t.Fatalf("bucketOf(max) = %d, want %d", got, numBuckets-1)
	}
}

// TestHistogramConcurrentWriters hammers one histogram from many
// goroutines while snapshots run, for the race detector; afterwards
// the counts must add up exactly.
func TestHistogramConcurrentWriters(t *testing.T) {
	h := &Histogram{}
	const writers, perWriter = 8, 20_000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader: snapshots must never tear or panic
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot()
				_ = h.Quantile(0.99)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
	var sum uint64
	for i := range h.buckets {
		sum += h.buckets[i].Load()
	}
	if sum != writers*perWriter {
		t.Fatalf("bucket sum = %d, want %d", sum, writers*perWriter)
	}
}

func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(5) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read zero")
	}
	if snap := h.Snapshot(); snap.Count != 0 {
		t.Fatal("nil histogram snapshot must be zero")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	h.Observe(1) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 37)
	}
}
