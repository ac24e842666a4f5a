package list

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/oakit"
	"repro/internal/obs"
	"repro/internal/smr"
)

// OAEngine runs Harris-Michael lists under the optimistic access scheme:
// it is the kit's chain (oakit.Find/Contains/Insert/Delete) over nodes
// with no payload, exposed root-relative for the hash table.
type OAEngine struct {
	kit *oakit.Engine[Node]
}

// NewOAEngine builds an engine; cfg.OwnerHPs is forced to the chain's need.
func NewOAEngine(cfg core.Config) *OAEngine {
	return &OAEngine{kit: oakit.NewChain(cfg, ResetNode)}
}

// Manager exposes the underlying optimistic access manager.
func (e *OAEngine) Manager() *core.Manager[Node] { return e.kit.Manager() }

// Scheme implements Engine.
func (e *OAEngine) Scheme() smr.Scheme { return smr.OA }

// Stats implements Engine.
func (e *OAEngine) Stats() smr.Stats { return e.kit.Stats() }

// RegisterObs implements Engine.
func (e *OAEngine) RegisterObs(reg *obs.Registry) { e.kit.RegisterObs(reg) }

// OAThread is the per-worker handle.
type OAThread struct {
	c *oakit.Ctx[Node]
}

// Thread implements Engine. Contexts (and their pending pre-allocated
// insert slot) are cached per id in the kit engine.
func (e *OAEngine) Thread(id int) Thread { return OAThread{c: e.kit.Ctx(id)} }

// ContainsAt reports whether key is in the list at root.
func (t OAThread) ContainsAt(root *atomic.Uint64, key uint64) bool {
	return oakit.Contains(t.c, root, key)
}

// InsertAt adds key to the list at root; false if already present.
func (t OAThread) InsertAt(root *atomic.Uint64, key uint64) bool {
	return oakit.Insert(t.c, root, key, nil)
}

// DeleteAt removes key from the list at root; false if absent.
func (t OAThread) DeleteAt(root *atomic.Uint64, key uint64) bool {
	return oakit.Delete(t.c, root, key)
}

// OA is a single linked-list set under optimistic access: the kit's list.
type OA = oakit.List[struct{}]

// NewOA builds an empty list sized by cfg.
func NewOA(cfg core.Config) *OA { return oakit.NewList(cfg, ResetNode) }
