package skiplist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dstest"
)

// TestOASkipListWarningStorm mirrors the list's storm test on the skip
// list, whose delete restarts a multi-CAS generator and whose insert
// restarts per-level link rounds — many more restart edges.
func TestOASkipListWarningStorm(t *testing.T) {
	sl := NewOA(core.Config{MaxThreads: 2, Capacity: 8192, LocalPool: 16})
	dstest.WarningStorm(t, sl.Session(0), sl.Manager().InjectWarnings, sl.Stats, 30000, 424242)
}
