package core

import (
	"repro/internal/pools"
)

// Test-only hooks into manager internals.

// PoolCounts returns the number of slots sitting in (ready, retire,
// processing) global pools. Only meaningful while no swap is in flight.
func (m *Manager[T]) PoolCounts() (ready, retire, processing int) {
	retire = m.slots(&m.retire)
	processing = m.slots(&m.process)
	// Drain and refill ready to count it. A popped block's next link still
	// points into the old chain, so count each block's own N only.
	var blocks []uint32
	m.ready.Drain(m.ba, func(b uint32) { blocks = append(blocks, b) })
	for i := len(blocks) - 1; i >= 0; i-- {
		ready += int(m.ba.B(blocks[i]).N)
		m.ready.Push(m.ba, blocks[i])
	}
	return
}

// StallSwap starts the phase swap of the retire pool's current version v
// and stops part-way, as if its initiator were descheduled: the retire
// pool is left frozen at v+1 and, when moved is set, its chain is also
// installed in the processing pool at v+2. Finishing is left to helpers.
func (m *Manager[T]) StallSwap(moved bool) {
	v := m.retire.Ver()
	m.freezeRetire(v, m.threads[0].ring)
	if _, h := m.retire.Load(); moved {
		m.process.CompareAndSwap(v, pools.NoBlock, v+2, h)
	}
}

// Blocks exposes the manager's block pool.
func (m *Manager[T]) Blocks() *pools.BlockArena { return m.ba }

// LocalCounts returns the slots buffered in thread t's local blocks.
func (t *Thread[T]) LocalCounts() int {
	n := 0
	if t.allocBlk != pools.NoBlock {
		n += int(t.mgr.ba.B(t.allocBlk).N)
	}
	if t.retireBlk != pools.NoBlock {
		n += int(t.mgr.ba.B(t.retireBlk).N)
	}
	return n
}

// LocalVer exposes the thread's phase version.
func (t *Thread[T]) LocalVer() uint32 { return t.localVer }

// WarnWord exposes the packed warning word.
func (t *Thread[T]) WarnWord() uint64 { return t.warn.Load() }

// Capacity returns the configured slot capacity after defaulting.
func (m *Manager[T]) Capacity() int { return m.cfg.Capacity }

// ForceWideHPs switches m's threads to 32-bit hazard-pointer fields, the
// form of a manager of more than 2²¹−1 slots. Call it before any thread
// runs.
func (m *Manager[T]) ForceWideHPs() {
	for _, t := range m.threads {
		t.hpw = 32
	}
}
