package main

import "repro/oamem"

// probeSetOps times the named set operations of one structure, under OA
// and under NoRecl, on keys drawn as the workload draws them. Inserts and
// deletes run at equal rates, so the set stays near its prefilled size.
func (r *run) probeSetOps(p *probeCtx, module string, build func(...oamem.Option) (*oamem.Structure, error),
	prefill, keyRange, rounds int, ops ...string) error {
	for _, sc := range []struct {
		scheme oamem.Scheme
		tag    string
	}{{oamem.OA, ""}, {oamem.NoRecl, "_norecl"}} {
		st, err := build(oamem.WithScheme(sc.scheme), oamem.WithThreads(1),
			oamem.WithCapacity(prefill+paperDelta+4*126+64), oamem.WithExpected(prefill))
		if err != nil {
			return err
		}
		s, err := st.Acquire()
		if err != nil {
			return err
		}
		for k := 0; k < prefill; k++ {
			s.Insert(uint64(2 * k % keyRange))
		}
		keys := p.draw(calls(rounds, len(ops)))
		key := func(i int) uint64 { return uint64(keys[i] % keyRange) }
		call := map[string]func(int){
			"contains": func(i int) { s.Contains(key(i)) },
			"insert":   func(i int) { s.Insert(key(i)) },
			"delete":   func(i int) { s.Delete(key(i)) },
		}
		var timed []timedOp
		for _, op := range ops {
			timed = append(timed, timedOp{module + "." + op + sc.tag + "_ns", call[op]})
		}
		r.timeOps(p, rounds, timed...)
		s.Release()
	}
	return nil
}

// probeHashtable: internal/hashtable through oamem.HashSet, sized as the
// hash-update workload sizes it.
func (r *run) probeHashtable(p *probeCtx) error {
	return r.probeSetOps(p, "hashtable", oamem.HashSet, 10000, 20000, probeRounds/2, "contains", "insert", "delete")
}
