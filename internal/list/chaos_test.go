package list_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dstest"
	"repro/internal/list"
)

// TestOAListWarningStorm injects spurious warning bits while a worker runs
// operations against a model. A warning may only ever cause a restart of a
// parallelizable method — results must stay exactly sequential. This
// hammers every restart edge in the generator/wrap-up code far beyond what
// organic phase changes produce.
func TestOAListWarningStorm(t *testing.T) {
	l := list.NewOA(core.Config{MaxThreads: 2, Capacity: 8192, LocalPool: 16})
	dstest.WarningStorm(t, l.Session(0), l.Engine().Manager().InjectWarnings, l.Stats, 40000, 31337)
}
