package obs

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestObserveBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); h.Count() != 0 || s != (Snapshot{}) || s.QuantileNs(0.5) != 0 {
		t.Fatal("zero histogram not zero")
	}
	h.Observe(100 * time.Nanosecond)
	h.Observe(200 * time.Nanosecond)
	h.Observe(300 * time.Nanosecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	s := h.Snapshot()
	if s.Sum/s.Count != 200 {
		t.Fatalf("mean = %dns", s.Sum/s.Count)
	}
	if s.Max != 300 {
		t.Fatalf("Max = %dns", s.Max)
	}
	if h.String() == "" {
		t.Fatal("String empty")
	}
}

func TestNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if s := h.Snapshot(); s.Max != 0 || s.Count != 1 {
		t.Fatalf("negative sample mishandled: max=%d n=%d", s.Max, s.Count)
	}
}

// TestQuantileBounds pins the percentiles STATS and RESP INFO report:
// p50 <= p90 <= p99, each a bucket upper edge at or above the true
// quantile and below the next power of two.
func TestQuantileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Microsecond)
	}
	s := h.Snapshot()
	p50, p90, p99 := s.QuantileNs(0.5), s.QuantileNs(0.9), s.QuantileNs(0.99)
	if p50 > p90 || p90 > p99 {
		t.Fatalf("quantiles out of order: p50 %d p90 %d p99 %d", p50, p90, p99)
	}
	for _, c := range []struct {
		name    string
		got, lo uint64
	}{{"p50", p50, 50_000}, {"p90", p90, 90_000}, {"p99", p99, 99_000}} {
		// Bucket upper bounds: the q-quantile of 1..100µs must lie within
		// [q·100µs, 2^17 ns ≈ 131µs).
		if c.got < c.lo || c.got >= 1<<17 {
			t.Fatalf("%s = %dns", c.name, c.got)
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	b.Observe(time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 {
		t.Fatalf("Count = %d", a.Count())
	}
	if s := a.Snapshot(); s.Max != uint64(time.Millisecond) {
		t.Fatalf("Max = %dns", s.Max)
	}
}

func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

// Property: quantile upper bound always ≥ the true quantile sample.
func TestQuickQuantileUpperBound(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		maxS := time.Duration(0)
		for _, s := range samples {
			d := time.Duration(s)
			h.Observe(d)
			if d > maxS {
				maxS = d
			}
		}
		s := h.Snapshot()
		return time.Duration(s.QuantileNs(1.0)) >= maxS/2 && time.Duration(s.Max) == maxS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: a negative duration must saturate to zero before
// the unsigned conversion, landing in bucket 0 with nothing added to the
// sum (the old code produced a huge uint64 and polluted the top bucket).
func TestNegativeGoesToBucketZero(t *testing.T) {
	var h Histogram
	h.Observe(-5 * time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("snapshot = %+v, want count=1 sum=0 max=0", s)
	}
	if s.Counts[0] != 1 {
		t.Fatalf("bucket 0 = %d, want 1", s.Counts[0])
	}
	for i := 1; i < Buckets; i++ {
		if s.Counts[i] != 0 {
			t.Fatalf("bucket %d = %d, want 0", i, s.Counts[i])
		}
	}
}

func TestSnapshotConsistent(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Count != h.Count() {
		t.Fatalf("Count = %d", s.Count)
	}
	var bucketSum uint64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

// Under sustained concurrent writes the retry loop may give up, but the
// triple it returns can only be torn by the writes in flight during the
// read pass: bucket sum and count may differ by at most the number of
// writers times the samples each can complete during one pass — bounded
// loosely here by the total written after the fact.
func TestSnapshotUnderConcurrency(t *testing.T) {
	const writers = 4
	const each = 20000
	var h Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()
	for {
		s := h.Snapshot()
		var bucketSum uint64
		for _, c := range s.Counts {
			bucketSum += c
		}
		diff := int64(bucketSum) - int64(s.Count)
		if diff < 0 {
			diff = -diff
		}
		// A stable pass (the common case) has diff == 0; a torn final pass
		// can be off by the writes completed mid-read, far below `each`.
		if diff > writers*1000 {
			t.Fatalf("snapshot torn beyond plausibility: bucketSum=%d count=%d", bucketSum, s.Count)
		}
		select {
		case <-stop:
			s := h.Snapshot()
			if s.Count != writers*each {
				t.Fatalf("final count = %d, want %d", s.Count, writers*each)
			}
			return
		default:
		}
	}
}

func TestObserveNsMatchesObserve(t *testing.T) {
	var a, b Histogram
	for _, ns := range []uint64{0, 1, 999, 1 << 20, 1<<40 + 7} {
		a.Observe(time.Duration(ns))
		b.ObserveNs(ns)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa != sb {
		t.Fatalf("ObserveNs diverges from Observe:\n%+v\n%+v", sa, sb)
	}
	if sb.Count != 5 || sb.Max != 1<<40+7 {
		t.Fatalf("snapshot count=%d max=%d", sb.Count, sb.Max)
	}
}
