package skiplist

import (
	"repro/internal/ebr"
	"repro/internal/obs"
	"repro/internal/smr"
)

// EBRSkipList is the skip list under epoch-based reclamation: the plain
// algorithm with an epoch announcement bracketing each operation.
type EBRSkipList struct {
	mgr  *ebr.Manager[Node]
	head uint32
}

// NewEBR builds an empty skip list sized by cfg.
func NewEBR(cfg ebr.Config) *EBRSkipList {
	m := ebr.NewManager[Node](cfg, ResetNode)
	head := m.Thread(0).Alloc()
	m.Arena().At(head).Height.Store(MaxLevel)
	return &EBRSkipList{mgr: m, head: head}
}

// Manager exposes the underlying manager.
func (s *EBRSkipList) Manager() *ebr.Manager[Node] { return s.mgr }

// Scheme implements smr.Set.
func (s *EBRSkipList) Scheme() smr.Scheme { return smr.EBR }

// Stats implements smr.Set.
func (s *EBRSkipList) Stats() smr.Stats { return s.mgr.Stats() }

// RegisterObs implements obs.Registrar by forwarding to the scheme manager.
func (s *EBRSkipList) RegisterObs(reg *obs.Registry) { s.mgr.RegisterObs(reg) }

// Session implements smr.Set.
func (s *EBRSkipList) Session(tid int) smr.Session {
	t := s.mgr.Thread(tid)
	return &ebrSession{plain: newPlainSession(s.head, t.View(), t, uint64(tid)*0xA24BAED4963EE407+1), t: t}
}

// ebrSession is the plain skip list inside the epoch bracket: nothing
// reachable when OnOpStart announced can be freed until OnOpEnd.
type ebrSession struct {
	plain *plainSession
	t     *ebr.Thread[Node]
}

func (s *ebrSession) Contains(key uint64) bool {
	s.t.OnOpStart()
	defer s.t.OnOpEnd()
	return s.plain.Contains(key)
}

func (s *ebrSession) Insert(key uint64) bool {
	s.t.OnOpStart()
	defer s.t.OnOpEnd()
	return s.plain.Insert(key)
}

func (s *ebrSession) Delete(key uint64) bool {
	s.t.OnOpStart()
	defer s.t.OnOpEnd()
	return s.plain.Delete(key)
}
