package list

import (
	"repro/internal/arena"
	"repro/internal/ebr"
	"repro/internal/obs"
	"repro/internal/smr"
)

// EBREngine runs Harris-Michael lists under epoch-based reclamation:
// traversals are raw loads (no per-read barrier at all); the only overhead
// is the epoch announcement bracketing each operation — cheap on long
// traversals, dominant on the hash table's very short operations (Fig. 1).
type EBREngine struct {
	mgr *ebr.Manager[Node]
}

// NewEBREngine builds an engine.
func NewEBREngine(cfg ebr.Config) *EBREngine {
	return &EBREngine{mgr: ebr.NewManager[Node](cfg, ResetNode)}
}

// Manager exposes the underlying EBR manager.
func (e *EBREngine) Manager() *ebr.Manager[Node] { return e.mgr }

// NewHead implements Engine.
func (e *EBREngine) NewHead() uint32 { return e.mgr.Thread(0).Alloc() }

// Scheme implements Engine.
func (e *EBREngine) Scheme() smr.Scheme { return smr.EBR }

// Stats implements Engine.
func (e *EBREngine) Stats() smr.Stats { return e.mgr.Stats() }

// RegisterObs implements Engine.
func (e *EBREngine) RegisterObs(reg *obs.Registry) { e.mgr.RegisterObs(reg) }

// ebrThread is the plain traversal inside the epoch bracket: nothing
// reachable when OnOpStart announced can be freed until OnOpEnd.
type ebrThread struct {
	plain plainThread
	t     *ebr.Thread[Node]
}

// Thread implements Engine.
func (e *EBREngine) Thread(id int) Thread {
	t := e.mgr.Thread(id)
	return &ebrThread{plain: plainThread{view: t.View(), mem: t, pending: arena.NoSlot}, t: t}
}

func (t *ebrThread) ContainsAt(head uint32, key uint64) bool {
	t.t.OnOpStart()
	defer t.t.OnOpEnd()
	return t.plain.ContainsAt(head, key)
}

func (t *ebrThread) InsertAt(head uint32, key uint64) bool {
	t.t.OnOpStart()
	defer t.t.OnOpEnd()
	return t.plain.InsertAt(head, key)
}

func (t *ebrThread) DeleteAt(head uint32, key uint64) bool {
	t.t.OnOpStart()
	defer t.t.OnOpEnd()
	return t.plain.DeleteAt(head, key)
}

// EBR is a single linked-list set under epoch-based reclamation.
type EBR = Set[*EBREngine]

// NewEBR builds an empty list sized by cfg.
func NewEBR(cfg ebr.Config) *EBR { return newSet(NewEBREngine(cfg)) }
