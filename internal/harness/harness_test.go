package harness

import (
	"testing"
	"time"

	"repro/internal/smr"
)

func TestBuildAllPairs(t *testing.T) {
	for _, st := range Structures {
		for _, sc := range smr.Schemes {
			if !st.Supports(sc) {
				if _, err := Build(BuildConfig{Structure: st, Scheme: sc, Threads: 1, Delta: 1024}); err == nil {
					t.Fatalf("%s/%v: expected unsupported error", st, sc)
				}
				continue
			}
			set, err := Build(BuildConfig{Structure: st, Scheme: sc, Threads: 2, Delta: 1024})
			if err != nil {
				t.Fatalf("%s/%v: %v", st, sc, err)
			}
			if set.Scheme() != sc {
				t.Fatalf("%s/%v: built scheme %v", st, sc, set.Scheme())
			}
			s := set.Session(0)
			if !s.Insert(1) || !s.Contains(1) || !s.Delete(1) {
				t.Fatalf("%s/%v: basic ops failed", st, sc)
			}
		}
	}
}

func TestRunDurationMode(t *testing.T) {
	set, err := Build(BuildConfig{Structure: LinkedList128, Scheme: smr.OA, Threads: 2, Delta: 2048})
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadFor(LinkedList128, 2, 0.8)
	w.Duration = 50 * time.Millisecond
	res := Run(set, w)
	if res.Ops == 0 {
		t.Fatal("no operations performed")
	}
	if res.Mops() <= 0 {
		t.Fatalf("Mops = %v", res.Mops())
	}
	if res.Stats.Allocs == 0 {
		t.Fatalf("stats missing: %+v", res.Stats)
	}
}

func TestRunOpsMode(t *testing.T) {
	set, err := Build(BuildConfig{Structure: Hash, Scheme: smr.EBR, Threads: 4, Delta: 2048})
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadFor(Hash, 4, 0.8)
	w.TotalOps = 10000
	res := Run(set, w)
	if res.Ops < 10000 {
		t.Fatalf("Ops = %d, want >= 10000", res.Ops)
	}
}

func TestPrefillReachesSize(t *testing.T) {
	set, err := Build(BuildConfig{Structure: LinkedList128, Scheme: smr.NoRecl, Threads: 1, Delta: 1024})
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadFor(LinkedList128, 1, 0.8)
	Prefill(set, w)
	s := set.Session(0)
	count := 0
	for k := uint64(1); k <= w.KeyRange; k++ {
		if s.Contains(k) {
			count++
		}
	}
	if count != 128 {
		t.Fatalf("prefill produced %d keys, want 128", count)
	}
}

func TestRepeatStatistics(t *testing.T) {
	mk := func() smr.Set {
		set, err := Build(BuildConfig{Structure: LinkedList128, Scheme: smr.NoRecl, Threads: 1, Delta: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	w := WorkloadFor(LinkedList128, 1, 0.8)
	w.Duration = 20 * time.Millisecond
	mean, ci := Repeat(mk, w, 3)
	if mean <= 0 {
		t.Fatalf("mean = %v", mean)
	}
	if ci < 0 {
		t.Fatalf("ci = %v", ci)
	}
}

func TestWorkloadDefaults(t *testing.T) {
	w := Workload{}
	w.fill()
	if w.Threads != 1 || w.ReadFraction != 0.8 || w.KeyRange == 0 || w.Duration == 0 {
		t.Fatalf("defaults: %+v", w)
	}
}

func TestFormatRatio(t *testing.T) {
	if got := FormatRatio(1, 0); got != "n/a" {
		t.Fatalf("FormatRatio(1,0) = %q", got)
	}
	if got := FormatRatio(3, 4); got != "0.75" {
		t.Fatalf("FormatRatio(3,4) = %q", got)
	}
}

func TestStructureMetadata(t *testing.T) {
	if LinkedList5K.InitialSize() != 5000 || LinkedList128.InitialSize() != 128 ||
		Hash.InitialSize() != 10000 || SkipList.InitialSize() != 10000 {
		t.Fatal("paper sizes wrong")
	}
	if !LinkedList5K.Supports(smr.Anchors) || Hash.Supports(smr.Anchors) || SkipList.Supports(smr.Anchors) {
		t.Fatal("anchors support matrix wrong")
	}
}

func TestZipfWorkloadRuns(t *testing.T) {
	set, err := Build(BuildConfig{Structure: Hash, Scheme: smr.OA, Threads: 2, Delta: 2048})
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadFor(Hash, 2, 0.8)
	w.TotalOps = 20000
	w.ZipfS = 1.3
	res := Run(set, w)
	if res.Ops < 20000 {
		t.Fatalf("Ops = %d", res.Ops)
	}
}

func TestLatencySampling(t *testing.T) {
	set, err := Build(BuildConfig{Structure: Hash, Scheme: smr.OA, Threads: 2, Delta: 2048})
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadFor(Hash, 2, 0.8)
	w.TotalOps = 20000
	w.LatencySample = 8
	res := Run(set, w)
	if res.Latency == nil {
		t.Fatal("LatencySample > 0 but Result.Latency is nil")
	}
	if res.Latency.SampleEvery != 8 {
		t.Fatalf("SampleEvery = %d, want 8", res.Latency.SampleEvery)
	}
	var samples uint64
	for k := OpKind(0); k < NumOpKinds; k++ {
		samples += res.Latency.Hist(k).Count()
	}
	// Every thread samples one op in 8, so roughly Ops/8 observations.
	if lo := res.Ops / 16; samples < lo {
		t.Fatalf("sampled %d ops, want >= %d of %d", samples, lo, res.Ops)
	}
	// The 80/10/10 mix must reach every histogram.
	for k := OpKind(0); k < NumOpKinds; k++ {
		if res.Latency.Hist(k).Count() == 0 {
			t.Fatalf("no %v samples", k)
		}
	}
	if s := res.Latency.Hist(OpContains).Snapshot(); s.QuantileNs(0.99) == 0 {
		t.Fatal("contains p99 is zero")
	}
}

func TestLatencyDisabledByDefault(t *testing.T) {
	set, err := Build(BuildConfig{Structure: Hash, Scheme: smr.NoRecl, Threads: 1, Delta: 1024})
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadFor(Hash, 1, 0.8)
	w.TotalOps = 1000
	if res := Run(set, w); res.Latency != nil {
		t.Fatal("Result.Latency non-nil without LatencySample")
	}
}

func TestOpKindNames(t *testing.T) {
	want := map[OpKind]string{OpContains: "contains", OpInsert: "insert", OpDelete: "delete"}
	for k, n := range want {
		if k.String() != n {
			t.Fatalf("OpKind(%d).String() = %q, want %q", k, k.String(), n)
		}
	}
}
