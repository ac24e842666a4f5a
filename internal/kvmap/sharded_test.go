package kvmap

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/lease"
)

func TestShardedRouting(t *testing.T) {
	s := NewSharded(core.Config{MaxThreads: 2, Capacity: 1 << 14}, 1<<12, 4)
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
	// Deterministic, in-bounds, and not degenerate: over a key sweep every
	// shard must receive a reasonable slice of the keyspace.
	var hist [4]int
	for k := uint64(0); k < 1<<16; k++ {
		i := s.ShardIndex(k)
		if i != s.ShardIndex(k) {
			t.Fatalf("ShardIndex(%d) not deterministic", k)
		}
		if i < 0 || i >= 4 {
			t.Fatalf("ShardIndex(%d) = %d out of range", k, i)
		}
		hist[i]++
	}
	for i, n := range hist {
		if n < 1<<16/8 {
			t.Fatalf("shard %d received %d of %d keys — router is degenerate (hist %v)", i, n, 1<<16, hist)
		}
	}
}

func TestShardedSingleShardRoutesToZero(t *testing.T) {
	s := NewSharded(core.Config{MaxThreads: 1, Capacity: 1 << 10}, 16, 1)
	for _, k := range []uint64{0, 1, ^uint64(0), 0xDEADBEEF} {
		if i := s.ShardIndex(k); i != 0 {
			t.Fatalf("ShardIndex(%#x) = %d with one shard", k, i)
		}
	}
}

func TestShardedRoundsUpAndDefaults(t *testing.T) {
	s := NewSharded(core.Config{MaxThreads: 1, Capacity: 1 << 12}, 16, 3)
	if s.NumShards() != 4 {
		t.Fatalf("shards=3 rounded to %d, want 4", s.NumShards())
	}
	if c := NewSharded(core.Config{MaxThreads: 1, Capacity: 1 << 12}, 16, 1000); c.NumShards() != MaxShards {
		t.Fatalf("shards=1000 capped at %d, want %d", c.NumShards(), MaxShards)
	}
	d := NewSharded(core.Config{MaxThreads: 8, Capacity: 1 << 12}, 16, 0)
	if want := DefaultShards(8); d.NumShards() != want {
		t.Fatalf("default shards = %d, want %d", d.NumShards(), want)
	}
}

// TestShardedIndependentSessions proves the per-shard session registries
// are independent: exhausting one shard's registry must not block another
// shard's Acquire.
func TestShardedIndependentSessions(t *testing.T) {
	s := NewSharded(core.Config{MaxThreads: 1, Capacity: 1 << 12}, 64, 2)
	s0, err := s.Shard(0).Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Release()
	if _, err := s.Shard(0).Acquire(); !errors.Is(err, lease.ErrNoFreeSessions) {
		t.Fatalf("second Acquire on shard 0 = %v, want ErrNoFreeSessions", err)
	}
	s1, err := s.Shard(1).Acquire()
	if err != nil {
		t.Fatalf("shard 1 Acquire while shard 0 exhausted: %v", err)
	}
	s1.Release()
	if got := s.SessionsCap(); got != 2 {
		t.Fatalf("SessionsCap = %d, want 2", got)
	}
	if got := s.SessionsLeased(); got != 1 {
		t.Fatalf("SessionsLeased = %d, want 1", got)
	}
	if got := s.SessionGrants(); got != 2 {
		t.Fatalf("SessionGrants = %d, want 2", got)
	}
}

// TestShardedKeyspaceDisjoint writes through each shard's own map and
// checks a key stored in its home shard is invisible to the others (the
// shards are independent structures, not replicas).
func TestShardedKeyspaceDisjoint(t *testing.T) {
	s := NewSharded(core.Config{MaxThreads: 1, Capacity: 1 << 14}, 1<<12, 4)
	sessions := make([]*Session, 4)
	for i := range sessions {
		sess, err := s.Shard(i).Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Release()
		sessions[i] = sess
	}
	for k := uint64(1); k <= 1000; k++ {
		home := s.ShardIndex(k)
		sessions[home].Put(k, k*10)
	}
	for k := uint64(1); k <= 1000; k++ {
		home := s.ShardIndex(k)
		for i, sess := range sessions {
			v, ok := sess.Get(k)
			if i == home && (!ok || v != k*10) {
				t.Fatalf("key %d missing from home shard %d (ok=%v v=%d)", k, home, ok, v)
			}
			if i != home && ok {
				t.Fatalf("key %d leaked into shard %d", k, i)
			}
		}
	}
	stats := s.Stats()
	if len(stats) != 4 {
		t.Fatalf("Stats len = %d, want 4", len(stats))
	}
}

func TestShardedClose(t *testing.T) {
	s := NewSharded(core.Config{MaxThreads: 1, Capacity: 1 << 10}, 16, 2)
	s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Shard(i).Acquire(); !errors.Is(err, lease.ErrClosed) {
			t.Fatalf("shard %d Acquire after Close = %v, want ErrClosed", i, err)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{
		-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 63: 64, 64: 64, 65: 128,
	}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}
