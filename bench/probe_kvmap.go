package main

import "repro/oamem"

// Sizing shared with the serve workloads, so the in-process map probe
// measures the map the spawned server holds.
const (
	serveCapacity = 131072 // oaserver -capacity: the 65,536 live keys plus as much slack
	binKeys       = 65536
)

// probeKVMap times the map the server serves (internal/kvmap through
// oamem.ShardedKV), one operation type per batch, with no network and no
// server around it. Divided by the server's CPU time per request, these
// give server.map_share.
func (r *run) probeKVMap(p *probeCtx) error {
	sh, err := oamem.ShardedKV(oamem.WithThreads(2), oamem.WithCapacity(serveCapacity), oamem.WithExpected(serveCapacity/2))
	if err != nil {
		return err
	}
	sess := make([]*oamem.MapSession, sh.NumShards())
	for i := range sess {
		if sess[i], err = sh.Shard(i).Acquire(); err != nil {
			return err
		}
		defer sess[i].Release()
	}
	key := func(local int) uint64 { return mix64(uint64(local)) }
	vals := make([]uint64, binKeys)
	for k := range vals {
		vals[k] = 1<<63 | uint64(k)
		sess[sh.ShardIndex(key(k))].Put(key(k), vals[k])
	}
	keys := p.draw(calls(probeRounds, 5))
	at := func(i int) (uint64, *oamem.MapSession, int) {
		local := keys[i] % binKeys
		return key(local), sess[sh.ShardIndex(key(local))], local
	}
	r.timeOps(p, probeRounds,
		timedOp{"kvmap.route_ns", func(i int) { probeSink += uint64(sh.ShardIndex(key(keys[i]))) }},
		timedOp{"kvmap.get_ns", func(i int) {
			k, s, _ := at(i)
			v, _ := s.Get(k)
			probeSink += v
		}},
		timedOp{"kvmap.put_ns", func(i int) {
			k, s, local := at(i)
			vals[local]++
			s.Put(k, vals[local])
		}},
		timedOp{"kvmap.cas_ns", func(i int) {
			k, s, local := at(i)
			if swapped, _ := s.CompareAndSwap(k, vals[local], vals[local]+1); swapped {
				vals[local]++
			}
		}},
		timedOp{"kvmap.remove_ns", func(i int) {
			k, s, _ := at(i)
			s.Remove(k)
		}},
	)
	return nil
}
