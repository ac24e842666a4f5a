package oamem_test

import (
	"errors"
	"sync"
	"testing"

	"repro/oamem"
)

func constructors() map[string]func(...oamem.Option) (*oamem.Structure, error) {
	return map[string]func(...oamem.Option) (*oamem.Structure, error){
		"List":     oamem.List,
		"HashSet":  oamem.HashSet,
		"SkipList": oamem.SkipList,
	}
}

func TestAllConstructors(t *testing.T) {
	size := []oamem.Option{oamem.WithThreads(4), oamem.WithCapacity(1 << 14)}
	for name, mk := range constructors() {
		for _, scheme := range []oamem.Scheme{oamem.NoRecl, oamem.OA, oamem.HP, oamem.EBR} {
			set, err := mk(append(size, oamem.WithScheme(scheme))...)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, scheme, err)
			}
			s, err := set.Acquire()
			if err != nil {
				t.Fatalf("%s/%v: Acquire: %v", name, scheme, err)
			}
			if !s.Insert(7) || !s.Contains(7) || s.Insert(7) || !s.Delete(7) || s.Contains(7) {
				t.Fatalf("%s/%v: set semantics broken", name, scheme)
			}
			s.Release()
			if set.Scheme() != scheme {
				t.Fatalf("%s/%v: reports scheme %v", name, scheme, set.Scheme())
			}
		}
	}
}

func TestAnchorsListOnly(t *testing.T) {
	size := []oamem.Option{oamem.WithThreads(2), oamem.WithCapacity(4096)}
	if _, err := oamem.List(append(size, oamem.WithScheme(oamem.Anchors))...); err != nil {
		t.Fatalf("anchors list: %v", err)
	}
	if _, err := oamem.HashSet(append(size, oamem.WithScheme(oamem.Anchors))...); !errors.Is(err, oamem.ErrInvalidOptions) {
		t.Fatalf("anchors hash set: %v, want ErrInvalidOptions", err)
	}
	if _, err := oamem.SkipList(append(size, oamem.WithScheme(oamem.Anchors))...); !errors.Is(err, oamem.ErrInvalidOptions) {
		t.Fatalf("anchors skip list: %v, want ErrInvalidOptions", err)
	}
}

func TestUnknownScheme(t *testing.T) {
	size := []oamem.Option{oamem.WithThreads(1), oamem.WithCapacity(1024)}
	for name, mk := range constructors() {
		if _, err := mk(append(size, oamem.WithScheme(oamem.Scheme(99)))...); !errors.Is(err, oamem.ErrInvalidOptions) {
			t.Fatalf("%s: unknown scheme: %v, want ErrInvalidOptions", name, err)
		}
	}
}

func TestConcurrentSessionsThroughPublicAPI(t *testing.T) {
	set, err := oamem.HashSet(
		oamem.WithThreads(4),
		oamem.WithCapacity(1<<14),
		oamem.WithExpected(1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s, err := set.Acquire()
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			defer s.Release()
			base := uint64(id) << 32
			for i := uint64(1); i <= 2000; i++ {
				k := base + i
				if !s.Insert(k) {
					t.Errorf("insert %d", k)
					return
				}
				if !s.Delete(k) {
					t.Errorf("delete %d", k)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if set.Stats().Allocs == 0 {
		t.Fatal("stats not plumbed")
	}
}

func TestStatsTypeAlias(t *testing.T) {
	var s oamem.Stats
	s.Add(oamem.Stats{Allocs: 2})
	if s.Allocs != 2 {
		t.Fatal("Stats alias broken")
	}
}
