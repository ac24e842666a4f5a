package main

import (
	"sync/atomic"

	"repro/internal/flight"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/smr"
)

// flightProbe keeps the in-process flight recorder sampling for the
// whole benchmark run, so the numbers a report carries were collected
// with continuous recording on at the default interval — the
// recorder's steady-state cost is part of what the tracking gate
// measures, not an unmeasured production surprise.
//
// The smr_* families are registered once over an atomically swapped
// source: each cell's freshly built structure is published into the
// probe before its repetitions start, and the recorder's next tick
// samples that structure. Between cells the source briefly points at
// the previous (now idle) structure, which only flattens the series.
type flightProbe struct {
	cur atomic.Pointer[statHolder]
	rec *flight.Recorder
}

// statHolder gives the atomic pointer one concrete type to hold while
// the underlying sources vary across schemes and structures.
type statHolder struct{ src harness.StatSource }

func (p *flightProbe) Stats() smr.Stats {
	if h := p.cur.Load(); h != nil {
		return h.src.Stats()
	}
	return smr.Stats{}
}

// startFlightProbe builds the registry, registers the swappable smr_*
// families, and starts a recorder at the default interval and window.
//
// Deliberately does NOT call obs.SetEnabled: that global flag gates
// hot-path counters inside the OA core (hazard-pointer word stores), and
// flipping it would benchmark the instrumentation, not the recorder (~35%
// on LinkedList128/OA, measured while it also counted every warning
// check). The smr_* aggregates sampled here are maintained
// unconditionally, so the recorder sees real data either way; what
// this probe adds to the measured run is exactly what production pays
// for recording — one goroutine sampling every 250ms.
func startFlightProbe() *flightProbe {
	p := &flightProbe{}
	reg := obs.NewRegistry()
	harness.Observe(reg, p)
	p.rec = flight.New(reg, flight.Config{})
	p.rec.RegisterObs(reg)
	p.rec.Start()
	return p
}

// observe routes the recorder's samples at src from the next tick on.
func (p *flightProbe) observe(src harness.StatSource) {
	p.cur.Store(&statHolder{src: src})
}

func (p *flightProbe) stop() { p.rec.Stop() }
