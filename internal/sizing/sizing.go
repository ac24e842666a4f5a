// Package sizing holds the one struct a caller fills to size a structure
// under any reclamation scheme, and its projection onto each scheme's own
// Config. It carries only fields those Configs already have; what a
// structure forces (owner hazard pointers, hazard pointers per thread) is
// set by the structure's constructor, not here.
package sizing

import (
	"fmt"

	"repro/internal/anchors"
	"repro/internal/core"
	"repro/internal/ebr"
	"repro/internal/hpscheme"
	"repro/internal/norecl"
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

// HP projects onto the hazard-pointers manager's Config.
func (c Config) HP() hpscheme.Config {
	return hpscheme.Config{
		MaxThreads: c.MaxThreads, Capacity: c.Capacity, LocalPool: c.LocalPool,
		ScanThreshold: c.ScanThreshold,
	}
}

// EBR projects onto the epoch manager's Config.
func (c Config) EBR() ebr.Config {
	return ebr.Config{
		MaxThreads: c.MaxThreads, Capacity: c.Capacity, LocalPool: c.LocalPool,
		OpsPerScan: c.OpsPerScan,
	}
}

// Anchors projects onto the anchors manager's Config.
func (c Config) Anchors() anchors.Config {
	return anchors.Config{
		MaxThreads: c.MaxThreads, Capacity: c.Capacity, LocalPool: c.LocalPool,
		ScanThreshold: c.ScanThreshold, K: c.AnchorsK,
	}
}

// NoRecl projects onto the no-reclamation manager's Config.
func (c Config) NoRecl() norecl.Config {
	return norecl.Config{MaxThreads: c.MaxThreads, Capacity: c.Capacity, LocalPool: c.LocalPool}
}

// Unsupported is the error every structure's New returns for a scheme it
// is not implemented under — in practice Anchors anywhere but the list.
func Unsupported(structure string, sc smr.Scheme) error {
	if sc == smr.Anchors {
		return fmt.Errorf("anchors is implemented for the linked list only (as in the paper); %s under scheme %v", structure, sc)
	}
	return fmt.Errorf("%s: unknown scheme %v", structure, sc)
}
