package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/smr"
)

// StatSource is anything that can report aggregate SMR statistics —
// both smr.Set and smr.Queue satisfy it.
type StatSource interface {
	Stats() smr.Stats
}

// Observe registers a structure's scheme-neutral SMR signals with reg:
// the retired-but-unreclaimed backlog gauge and the re-retired, restart
// and phase counters — the same families whatever the scheme, so soaks
// of different schemes compare on one dashboard. If the structure also
// implements obs.Registrar (the OA wrappers do), its deep per-thread,
// pool and arena sources are registered too.
func Observe(reg *obs.Registry, src StatSource) {
	if rr, ok := src.(obs.Registrar); ok {
		rr.RegisterObs(reg)
	}
	stat := func(pick func(smr.Stats) uint64) obs.CounterFunc {
		return func() uint64 { return pick(src.Stats()) }
	}
	reg.Counter("smr_re_retired_total", "slots deferred because a hazard pointer or anchor protected them", stat(func(s smr.Stats) uint64 { return s.ReRetired }))
	reg.Counter("smr_restarts_total", "operation restarts forced by the scheme", stat(func(s smr.Stats) uint64 { return s.Restarts }))
	reg.Counter("smr_phases_total", "reclamation phases (scans, epochs) completed", stat(func(s smr.Stats) uint64 { return s.Phases }))
	reg.Gauge("smr_unreclaimed_slots", "retired slots not yet recycled (approximate under concurrency)", func() float64 {
		s := src.Stats()
		if s.Retires <= s.Recycled {
			return 0
		}
		return float64(s.Retires - s.Recycled)
	})
}

// Snapshotter prints a live progress line every Every while a run is in
// flight: cumulative ops with instantaneous throughput, per-interval deltas
// of restarts/recycled/phases, and the current retired backlog. Sampling
// reads the same per-thread atomics the workers publish, so it never stops
// or slows them.
type Snapshotter struct {
	W     io.Writer
	Every time.Duration
}

// Run samples until stop closes. ops returns the cumulative operation
// count; stats returns the structure's aggregate SMR statistics.
func (s *Snapshotter) Run(stop <-chan struct{}, ops func() uint64, stats func() smr.Stats) {
	if s.W == nil || s.Every <= 0 {
		return
	}
	tick := time.NewTicker(s.Every)
	defer tick.Stop()
	t0 := time.Now()
	var prevOps uint64
	var prev smr.Stats
	prevT := t0
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			curOps := ops()
			cur := stats()
			dt := now.Sub(prevT).Seconds()
			var mops float64
			if dt > 0 {
				mops = float64(curOps-prevOps) / dt / 1e6
			}
			backlog := uint64(0)
			if cur.Retires > cur.Recycled {
				backlog = cur.Retires - cur.Recycled
			}
			fmt.Fprintf(s.W, "snap +%5.1fs ops=%-12d %7.2f Mops/s  Δrestarts=%-8d Δrecycled=%-8d Δphases=%-6d backlog=%d\n",
				now.Sub(t0).Seconds(), curOps, mops,
				cur.Restarts-prev.Restarts, cur.Recycled-prev.Recycled, cur.Phases-prev.Phases, backlog)
			prevOps, prev, prevT = curOps, cur, now
		}
	}
}
