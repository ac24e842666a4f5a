// Package guard lets a structure write its original algorithm once and run
// it under NoRecl, EBR, HP and Anchors. (OA runs the structure's normalized
// form on package oakit instead.) A structure builds one Manager, and each
// of its threads holds one Guard: a concrete struct that holds the scheme
// thread behind nil-able pointers. The traversal calls the Guard's hooks at
// fixed places, and a hook does nothing for a scheme that does not need it:
//
//	          Begin          per hop                        End
//	NoRecl    —              —                              —
//	EBR       announce       —                              quiesce
//	HP        —              publish, re-read the source    clear hazard pointers
//	Anchors   announce era   one anchor per K visits        clear anchor, quiesce
//
// This is the Record-Manager split of Brown's "There Has to Be a Better
// Way": the structure places the hooks, the scheme decides what they cost.
// The Guard is deliberately not a type parameter of the traversal. Go
// compiles generic code once per GC shape and calls a type parameter's
// methods through the dictionary, which is an indirect call per hook. The
// methods of the concrete Guard[N] inline into the traversal, and under
// NoRecl each is one check. What a hook does for its own scheme may be a
// call — End's work, and the Anchors visit count — so that the hook fits
// the inliner's budget.
//
// One choice cannot be a per-hop hook. The original Contains of the list
// and skip list steps over marked nodes without helping. Hazard pointers
// cannot vouch for a marked node's successor (SCOT), so under HP a Contains
// runs the structure's helping search instead. Callers ask HP once, at
// operation entry.
package guard

import (
	"sync/atomic"

	"repro/internal/anchors"
	"repro/internal/arena"
	"repro/internal/ebr"
	"repro/internal/hpscheme"
	"repro/internal/norecl"
	"repro/internal/obs"
	"repro/internal/sizing"
	"repro/internal/smr"
)

// Spec is what New needs to know about a structure.
type Spec[N any] struct {
	// Name names the structure in the unsupported-scheme error.
	Name string
	// Reset zeroes a node at allocation.
	Reset func(*N)
	// HPs is the number of hazard pointers per thread under HP.
	HPs int
	// Next returns a node's successor word, which the anchors reclaimer
	// walks from each anchor. Nil means the structure has no Anchors
	// variant; as in the paper, only the list has one.
	Next func(*N) *atomic.Uint64
}

// Manager is one structure's scheme manager, whichever of the four
// schemes it runs.
type Manager[N any] struct {
	manager[N]
	sc    smr.Scheme
	guard func(id int) Guard[N]
}

// manager is what the four scheme managers have in common.
type manager[N any] interface {
	Arena() *arena.Arena[N]
	Stats() smr.Stats
	RegisterObs(reg *obs.Registry)
}

// New builds the manager of scheme sc, sized by c.
func New[N any](sc smr.Scheme, c sizing.Config, s Spec[N]) (*Manager[N], error) {
	m := &Manager[N]{sc: sc}
	switch sc {
	case smr.NoRecl:
		mg := norecl.NewManager(c.NoRecl(), s.Reset)
		m.manager = mg
		m.guard = func(id int) Guard[N] {
			t := mg.Thread(id)
			return Guard[N]{View: t.View(), mem: t, sc: sc}
		}
	case smr.EBR:
		mg := ebr.NewManager(c.EBR(), s.Reset)
		m.manager = mg
		m.guard = func(id int) Guard[N] {
			t := mg.Thread(id)
			return Guard[N]{View: t.View(), mem: t, ebr: t, sc: sc}
		}
	case smr.HP:
		cfg := c.HP()
		cfg.HPsPerThread = s.HPs
		mg := hpscheme.NewManager(cfg, s.Reset)
		m.manager = mg
		m.guard = func(id int) Guard[N] {
			t := mg.Thread(id)
			return Guard[N]{View: t.View(), mem: t, hp: t, sc: sc}
		}
	case smr.Anchors:
		if s.Next == nil {
			return nil, sizing.Unsupported(s.Name, sc)
		}
		var mg *anchors.Manager[N]
		mg = anchors.NewManager(c.Anchors(), s.Reset, func(slot uint32) arena.Ptr {
			return arena.Ptr(s.Next(mg.Arena().At(slot)).Load())
		})
		m.manager = mg
		m.guard = func(id int) Guard[N] {
			t := mg.Thread(id)
			return Guard[N]{View: t.View(), mem: t, anc: t, sc: sc}
		}
	default:
		return nil, sizing.Unsupported(s.Name, sc)
	}
	return m, nil
}

// Scheme reports the scheme the manager runs.
func (m *Manager[N]) Scheme() smr.Scheme { return m.sc }

// Guard returns the guard of thread context id.
func (m *Manager[N]) Guard(id int) Guard[N] { return m.guard(id) }

// Guard is one thread's hooks into its scheme. It is used by one goroutine
// at a time, like the scheme thread it wraps. At most one of hp, anc and
// ebr is set; NoRecl sets none. sc names the scheme: the per-operation
// hooks test it, the per-hop hooks test the pointer they use.
type Guard[N any] struct {
	// View is the scheme thread's directory view: every node dereference
	// goes through it.
	View *arena.View[N]
	mem  mem
	hp   *hpscheme.Thread[N]
	anc  *anchors.Thread[N]
	ebr  *ebr.Thread[N]
	sc   smr.Scheme
}

// mem is what every scheme thread does with slots.
type mem interface {
	Alloc() uint32
	Retire(slot uint32)
}

// Alloc returns a zeroed slot.
func (g *Guard[N]) Alloc() uint32 { return g.mem.Alloc() }

// Retire hands an unlinked slot to the scheme.
func (g *Guard[N]) Retire(slot uint32) { g.mem.Retire(slot) }

// HP reports whether the thread runs under hazard pointers, for the one
// choice made at operation entry (see the package comment).
func (g *Guard[N]) HP() bool { return g.sc == smr.HP }

// Begin opens an operation: EBR announces the epoch, Anchors the era.
func (g *Guard[N]) Begin() {
	switch g.sc {
	case smr.EBR:
		g.ebr.OnOpStart()
	case smr.Anchors:
		g.anc.OnOpStart()
	}
}

// End closes an operation: HP clears its hazard pointers, EBR and Anchors
// go quiescent. The work is out of line so that End inlines.
func (g *Guard[N]) End() {
	if g.sc != smr.NoRecl {
		g.end()
	}
}

// end stays out of line: inlined, it would push End past the budget.
//
//go:noinline
func (g *Guard[N]) end() {
	if g.hp != nil {
		g.hp.ClearAll()
	} else if g.ebr != nil {
		g.ebr.OnOpEnd()
	} else {
		g.anc.OnOpEnd()
	}
}

// Clear drops HP's hazard pointers inside an operation.
func (g *Guard[N]) Clear() {
	if g.hp != nil {
		g.hp.ClearAll()
	}
}

// Protect publishes HP hazard pointer i on p, with no validation: p is
// already known to be safe (a node this thread just validated or owns).
func (g *Guard[N]) Protect(i int, p arena.Ptr) {
	if g.hp != nil {
		g.hp.Protect(i, p)
	}
}

// Validate publishes HP hazard pointer i on p and reports whether *src
// still holds want. If it does not, the traversal must restart. It always
// reports true under the other schemes.
func (g *Guard[N]) Validate(i int, p arena.Ptr, src *atomic.Uint64, want arena.Ptr) bool {
	if g.hp == nil {
		return true
	}
	g.hp.Protect(i, p)
	return arena.Ptr(src.Load()) == want
}

// Visit counts one Anchors node visit of cur, reached through *src. On
// every K-th visit it drops an anchor on cur and reports false if *src no
// longer leads to cur; the traversal must then restart. It always reports
// true under the other schemes.
func (g *Guard[N]) Visit(cur arena.Ptr, src *atomic.Uint64) bool {
	return g.anc == nil || g.anc.Visit(cur, src)
}

// Restart counts an HP traversal restart. The Anchors restart is counted
// by Visit; the other schemes count none.
func (g *Guard[N]) Restart() {
	if g.hp != nil {
		g.hp.CountRestart()
	}
}
