package oakit

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestExecuteAllSucceed(t *testing.T) {
	var words [5]atomic.Uint64
	var dl descList
	for i := range words {
		words[i].Store(uint64(i))
		dl.append(&words[i], uint64(i), uint64(i)+100)
	}
	if failed := dl.execute(); failed != 0 {
		t.Fatalf("execute = %d, want 0", failed)
	}
	for i := range words {
		if got := words[i].Load(); got != uint64(i)+100 {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

func TestExecuteStopsAtFirstFailure(t *testing.T) {
	var words [4]atomic.Uint64
	var dl descList
	for i := range words {
		words[i].Store(uint64(i))
	}
	dl.append(&words[0], 0, 10)
	dl.append(&words[1], 999, 11) // wrong expected: fails
	dl.append(&words[2], 2, 12)   // must not run
	if failed := dl.execute(); failed != 2 {
		t.Fatalf("execute = %d, want 2 (1-based index)", failed)
	}
	if words[0].Load() != 10 {
		t.Fatal("first CAS should have applied")
	}
	if words[2].Load() != 2 {
		t.Fatal("executor ran past the first failure")
	}
}

func TestResetReuses(t *testing.T) {
	var w atomic.Uint64
	var dl descList
	dl.append(&w, 0, 1)
	dl.reset()
	if dl.n != 0 {
		t.Fatalf("n = %d after reset", dl.n)
	}
	dl.append(&w, 0, 2)
	if failed := dl.execute(); failed != 0 {
		t.Fatalf("execute = %d", failed)
	}
	if w.Load() != 2 {
		t.Fatal("reused list executed stale descriptor")
	}
}

func TestEmptyListExecutes(t *testing.T) {
	var dl descList
	if failed := dl.execute(); failed != 0 {
		t.Fatalf("empty execute = %d", failed)
	}
}

// Property: for any prefix of matching expectations followed by a mismatch,
// execute applies exactly the prefix.
func TestExecuteQuickPrefix(t *testing.T) {
	f := func(vals []uint64, cut uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > maxCAS {
			vals = vals[:maxCAS]
		}
		k := int(cut) % len(vals) // index of the first failing CAS
		words := make([]atomic.Uint64, len(vals))
		var dl descList
		for i, v := range vals {
			words[i].Store(v)
			exp := v
			if i == k {
				exp = v + 1 // guaranteed mismatch
			}
			dl.append(&words[i], exp, v+7)
		}
		if dl.execute() != k+1 {
			return false
		}
		for i := range vals {
			want := vals[i]
			if i < k {
				want += 7
			}
			if words[i].Load() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
