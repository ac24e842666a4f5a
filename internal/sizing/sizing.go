// Package sizing holds the one struct a caller fills to size a structure
// under any reclamation scheme. OA reads it through its projection onto
// core.Config; the four baselines' manager, guard.New, reads it directly.
// What a structure forces (owner hazard pointers, hazard pointers per
// thread) is set by the structure's constructor, not here.
package sizing

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/smr"
)

// Config is the union of the five schemes' sizing knobs. Zero fields take
// the scheme's default.
type Config struct {
	// MaxThreads is the fixed number of thread contexts (every scheme).
	MaxThreads int
	// Capacity is the node budget (every scheme; a hard limit under OA).
	Capacity int
	// LocalPool is the transfer-block size (every scheme).
	LocalPool int
	// ScanThreshold is the retires-per-scan trigger of HP and Anchors.
	ScanThreshold int
	// OpsPerScan is EBR's operations-per-epoch-attempt trigger.
	OpsPerScan int
	// AnchorsK is the anchors scheme's fence amortization distance.
	AnchorsK int
	// WarningByStore is OA's Appendix E ablation.
	WarningByStore bool
	// Shards is OA's block-pool shard count.
	Shards int
}

// OA projects onto the optimistic access manager's Config.
func (c Config) OA() core.Config {
	return core.Config{
		MaxThreads: c.MaxThreads, Capacity: c.Capacity, LocalPool: c.LocalPool,
		WarningByStore: c.WarningByStore, Shards: c.Shards,
	}
}

// Unsupported is the error every structure's New returns for a scheme it
// is not implemented under — in practice Anchors anywhere but the list.
func Unsupported(structure string, sc smr.Scheme) error {
	if sc == smr.Anchors {
		return fmt.Errorf("anchors is implemented for the linked list only (as in the paper); %s under scheme %v", structure, sc)
	}
	return fmt.Errorf("%s: unknown scheme %v", structure, sc)
}
