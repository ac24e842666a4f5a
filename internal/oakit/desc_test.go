package oakit

import (
	"testing"
	"testing/quick"

	"repro/internal/arena"
)

func TestExecuteAllSucceed(t *testing.T) {
	var words [5]arena.Link
	var dl descList
	for i := range words {
		words[i].Store(arena.Ptr(i))
		dl.append(&words[i], arena.Ptr(i), arena.Ptr(i)+100)
	}
	if failed := dl.execute(); failed != 0 {
		t.Fatalf("execute = %d, want 0", failed)
	}
	for i := range words {
		if got := words[i].Load(); got != arena.Ptr(i)+100 {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

func TestExecuteStopsAtFirstFailure(t *testing.T) {
	var words [4]arena.Link
	var dl descList
	for i := range words {
		words[i].Store(arena.Ptr(i))
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
	var w arena.Link
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
	f := func(raw []uint32, cut uint8) bool {
		// Link values: the 32-bit handles, with room for the +7 below.
		vals := make([]arena.Ptr, len(raw))
		for i, r := range raw {
			vals[i] = arena.Ptr(r >> 1)
		}
		if len(vals) == 0 {
			return true
		}
		if len(vals) > maxCAS {
			vals = vals[:maxCAS]
		}
		k := int(cut) % len(vals) // index of the first failing CAS
		words := make([]arena.Link, len(vals))
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
