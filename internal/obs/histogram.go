package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Buckets is the number of log₂ buckets of a Histogram: bucket i counts
// samples of bits.Len64(ns) == i, i.e. [2^(i-1), 2^i) nanoseconds; the
// last bucket absorbs the tail.
const Buckets = 40

// Histogram is a fixed-shape lock-free log₂ histogram of durations:
// reclamation pauses (core), request latencies (server, oaload,
// oastress). The zero value is ready to use.
type Histogram struct {
	counts [Buckets]atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
	max    atomic.Uint64
}

// Observe records one duration. Negative durations (a clock step mid-
// measurement) saturate to zero before any conversion, so the unsigned
// nanosecond value is never derived from a negative input.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveNs(uint64(d.Nanoseconds()))
}

// ObserveNs records one duration given directly in nanoseconds — the
// form the server's span instrumentation holds (monotonic-clock deltas),
// saving a Duration round trip on the request path.
func (h *Histogram) ObserveNs(ns uint64) {
	b := bits.Len64(ns)
	if b >= Buckets {
		b = Buckets - 1
	}
	h.counts[b].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Snapshot is a point-in-time view of a Histogram: a count/sum/max triple
// plus the per-bucket counts, all taken from the same read pass.
type Snapshot struct {
	Count  uint64 // number of samples
	Sum    uint64 // total nanoseconds
	Max    uint64 // largest sample, nanoseconds
	Counts [Buckets]uint64
}

// QuantileNs returns an upper bound (in nanoseconds) for the q-quantile
// (0 < q <= 1) of the snapshot, using each bucket's upper edge. It is the
// one quantile routine: STATS, RESP INFO, oaload -json and the health
// engine's windowed p99 all read it.
func (s *Snapshot) QuantileNs(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var acc uint64
	for i := 0; i < Buckets; i++ {
		acc += s.Counts[i]
		if acc >= target {
			return uint64(1)<<uint(i) - 1
		}
	}
	return s.Max
}

// Snapshot reads the histogram's state in one pass, so callers get a
// mutually consistent count/sum/max triple instead of three racing loads.
// It retries while samples complete mid-read (the count acts as a
// sequence number) and gives up after a few attempts under sustained
// concurrent writes, returning the last — then only approximately
// consistent — pass.
func (h *Histogram) Snapshot() Snapshot {
	for tries := 0; ; tries++ {
		n := h.n.Load()
		var s Snapshot
		s.Sum = h.sum.Load()
		s.Max = h.max.Load()
		for i := range s.Counts {
			s.Counts[i] = h.counts[i].Load()
		}
		s.Count = n
		if h.n.Load() == n || tries >= 3 {
			return s
		}
	}
}

// String renders the summary and the non-empty buckets for reports.
func (h *Histogram) String() string {
	s := h.Snapshot()
	var mean uint64
	if s.Count > 0 {
		mean = s.Sum / s.Count
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p99<=%v max=%v", s.Count, time.Duration(mean),
		time.Duration(s.QuantileNs(0.99)), time.Duration(s.Max))
	for i, c := range s.Counts {
		if c != 0 {
			fmt.Fprintf(&b, " [<%v]=%d", time.Duration(uint64(1)<<uint(i)), c)
		}
	}
	return b.String()
}

// Merge adds o's samples into h (max is kept as the pairwise max).
func (h *Histogram) Merge(o *Histogram) {
	for i := 0; i < Buckets; i++ {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(o.sum.Load())
	h.n.Add(o.n.Load())
	for {
		m, om := h.max.Load(), o.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			break
		}
	}
}
