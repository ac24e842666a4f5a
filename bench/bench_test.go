package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/server"
)

func testSpec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

// The limits the acceptance driver puts on BENCHMARK.json.
func TestSpecWithinLimits(t *testing.T) {
	spec, _ := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is listed but not implemented", w.Name)
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d workloads implemented, %d listed", len(workloads), len(spec.Workloads))
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit s, lower is better`)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

func TestGeneratorsRepeatForEqualSeeds(t *testing.T) {
	for _, s := range []serveSpec{serveBinMixed, serveRespCache} {
		a := genStream(s.codec, 7, s.stream, 1, serveConns, 4096)
		b := genStream(s.codec, 7, s.stream, 1, serveConns, 4096)
		c := genStream(s.codec, 8, s.stream, 1, serveConns, 4096)
		if !bytes.Equal(a.buf, b.buf) {
			t.Errorf("%s: equal seeds gave different request bytes", s.codec.name())
		}
		if bytes.Equal(a.buf, c.buf) {
			t.Errorf("%s: different seeds gave identical request bytes", s.codec.name())
		}
		if !bytes.Equal(genPreload(s.codec, 7, s.stream, 0, serveConns).buf, genPreload(s.codec, 7, s.stream, 0, serveConns).buf) {
			t.Errorf("%s: equal seeds gave different preload bytes", s.codec.name())
		}
	}
	x, y := newSetStream(3, 0, 2, 20000, 0.8, 0.1), newSetStream(3, 0, 2, 20000, 0.8, 0.1)
	mix := [3]int{}
	for i := 0; i < 100000; i++ {
		op, key, local := x.next()
		op2, key2, _ := y.next()
		if op != op2 || key != key2 {
			t.Fatalf("set streams with equal seeds diverge at operation %d", i)
		}
		if key%2 != 0 || key >= 20000 || local != key/2 {
			t.Fatalf("lane 0 of 2 drew key %d (local %d)", key, local)
		}
		mix[op]++
	}
	if math.Abs(float64(mix[setContains])/100000-0.8) > 0.01 || math.Abs(float64(mix[setInsert])/100000-0.1) > 0.01 {
		t.Errorf("mix %v, want 80/10/10", mix)
	}
	p := prefillSet(5, 2, 20000, 10000)
	n := 0
	for _, lane := range p {
		for _, w := range lane {
			for ; w != 0; w &= w - 1 {
				n++
			}
		}
	}
	if n != 10000 {
		t.Errorf("prefill chose %d keys, want 10000", n)
	}
}

func TestKeysAreZipfian(t *testing.T) {
	const n, draws = 32768, 400000
	z := newZipf(n, 0.99)
	r := newRNG(1, "test", 0)
	freq := make([]int, n)
	for i := 0; i < draws; i++ {
		freq[z.rank(r.float())]++
	}
	// P(rank 0) = 1/zeta(n); the hottest 1% of keys take over half.
	if got, want := float64(freq[0])/draws, 1/z.zetan; math.Abs(got/want-1) > 0.1 {
		t.Errorf("rank 0 drawn with frequency %.4f, want %.4f", got, want)
	}
	if ratio := float64(freq[2]) / float64(freq[20]); math.Abs(ratio/math.Pow(7, 0.99)-1) > 0.25 {
		t.Errorf("rank 2 is %.2fx as frequent as rank 20, want about %.2fx", ratio, math.Pow(7, 0.99))
	}
	top := 0
	for _, f := range freq[:n/100] {
		top += f
	}
	if share := float64(top) / draws; share < 0.5 {
		t.Errorf("hottest 1%% of keys drew %.2f of requests, want over half", share)
	}
	// The picker scatters ranks over the partition without merging any.
	p := newKeyPicker(newRNG(1, "test", 1), n, 0.99)
	seen := make([]bool, n)
	for rank := 0; rank < n; rank++ {
		k := (rank*scatter + p.offset) & (n - 1)
		if seen[k] {
			t.Fatalf("ranks collide on key %d", k)
		}
		seen[k] = true
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {1000000, 0.99999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// Values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := gate{metricSpec: metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}}
	higher := gate{metricSpec: metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}}
	abs := gate{metricSpec: metricSpec{Name: "fail_share", Better: "lower", Bound: 0.001}, absolute: true}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 75, 125, 100, 55, 145, 100, 100}
	for _, c := range []struct {
		name string
		g    gate
		a, b []float64
		want string
	}{
		{"same", lower, steady, scale(1.02), verdictOK},
		{"slower", lower, steady, scale(1.2), verdictRegressed},
		{"faster latency is not a regression", lower, steady, scale(0.5), verdictOK},
		{"throughput fell", higher, steady, scale(0.8), verdictRegressed},
		{"throughput rose", higher, steady, scale(1.3), verdictOK},
		{"spread wider than the bound", lower, steady, noisy, verdictUnresolved},
		{"failures appeared", abs, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, verdictRegressed},
		{"no failures", abs, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
	} {
		if got, _ := judge(c.g, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// The reply readers are the benchmark's own; check them against the
// server's encoders.
func TestReplyReadersAgreeWithServerEncoders(t *testing.T) {
	bin := binCodec{}
	frame := server.AppendFrame(nil, 42, server.StOK, 0xDEADBEEF)
	n, st, val, has, err := bin.parseReply(append(frame, 0xFF))
	if err != nil || n != len(frame) || st != stOK || !has || val != 0xDEADBEEF {
		t.Errorf("binary OK reply parsed as n=%d st=%d val=%#x has=%v err=%v", n, st, val, has, err)
	}
	frame = server.AppendFrame(nil, 42, server.StNotFound)
	if n, st, _, has, _ := bin.parseReply(frame); n != len(frame) || st != stNotFound || has {
		t.Errorf("binary NOT_FOUND reply parsed as n=%d st=%d has=%v", n, st, has)
	}
	if n, _, _, _, err := bin.parseReply(frame[:len(frame)-1]); n != 0 || err != nil {
		t.Errorf("truncated binary reply: n=%d err=%v, want 0 and no error", n, err)
	}
	for code, want := range map[byte]int{server.StBusy: stBusy, server.StCapacity: stCapacity, server.StCASMismatch: stCASMismatch, server.StBadRequest: stBadRequest} {
		if _, st, _, _, _ := bin.parseReply(server.AppendFrame(nil, 1, code)); st != want {
			t.Errorf("binary status %d read as %d", code, st)
		}
	}

	resp := respCodec{}
	word := resp.value(0x123456, 0x89ABCDEF)
	var payload [8]byte
	for i := range payload {
		payload[i] = byte(word >> (8 * i))
	}
	bulk := server.AppendRESPBulk(nil, payload[:7])
	if n, st, val, has, err := resp.parseReply(bulk); err != nil || n != len(bulk) || st != stOK || !has || val != word {
		t.Errorf("RESP bulk parsed as n=%d st=%d val=%#x has=%v err=%v, want val %#x", n, st, val, has, err, word)
	}
	for i := 1; i < len(bulk); i++ {
		if n, _, _, _, err := resp.parseReply(bulk[:i]); n != 0 || err != nil {
			t.Fatalf("RESP bulk cut at %d: n=%d err=%v, want 0 and no error", i, n, err)
		}
	}
	if n, st, _, _, _ := resp.parseReply(server.AppendRESPNil(nil)); n != 5 || st != stNotFound {
		t.Errorf("RESP nil parsed as n=%d st=%d", n, st)
	}
	if _, st, val, has, _ := resp.parseReply(server.AppendRESPInt(nil, 1)); st != stOK || !has || val != 1 {
		t.Errorf("RESP :1 parsed as st=%d val=%d has=%v", st, val, has)
	}
	if _, st, _, _, _ := resp.parseReply(server.AppendRESPSimple(nil, "OK")); st != stOK {
		t.Errorf("RESP +OK parsed as st=%d", st)
	}
	for msg, want := range map[string]int{"BUSY no free session": stBusy, "OOM node budget": stCapacity, "ERR unknown": stBadRequest} {
		if _, st, _, _, _ := resp.parseReply(server.AppendRESPError(nil, msg)); st != want {
			t.Errorf("RESP -%s read as %d, want %d", msg, st, want)
		}
	}
}

// The oracle must accept what a correct server answers and refuse a word
// from another key or from this key's past.
func TestOracleRefusesForeignAndStaleWords(t *testing.T) {
	cd := binCodec{keyOf: func(idx uint32) uint64 { return uint64(idx) }}
	s := &reqStream{off: []uint32{0}}
	const local = 5
	s.add(cd, opPut, 0, 2, local, 1, cd.value(10, 1), 0) // 0: put v1
	s.add(cd, opGet, 0, 2, local, 2, 0, 0)               // 1: get
	s.add(cd, opPut, 0, 2, local, 3, cd.value(10, 3), 0) // 2: put v3
	s.add(cd, opGet, 0, 2, local, 4, 0, 0)               // 3: get
	s.add(cd, opDel, 0, 2, local, 5, 0, 0)               // 4: del
	s.add(cd, opGet, 0, 2, local, 6, 0, 0)               // 5: get
	m := newConnModel(16, false)
	var cnt counts
	step := func(i, st int, val uint64, has bool) string { return m.check(s, cd, 0, 2, i, st, val, has, &cnt) }
	if v := step(0, stNotFound, 0, true); v != "" {
		t.Fatalf("first put: %s", v)
	}
	if v := step(1, stOK, cd.value(10, 1), true); v != "" {
		t.Fatalf("get after put: %s", v)
	}
	if v := step(2, stOK, cd.value(10, 1), true); v != "" {
		t.Fatalf("overwrite: %s", v)
	}
	if v := step(3, stOK, cd.value(10, 1), true); v == "" {
		t.Error("a get returning the key's previous version passed")
	}
	if v := step(3, stOK, cd.value(12, 3), true); v == "" {
		t.Error("a get returning another key's word passed")
	}
	if v := step(3, stNotFound, 0, false); v == "" {
		t.Error("a miss on a stored key passed in a store that never evicts")
	}
	if v := step(3, stOK, cd.value(10, 3), true); v != "" {
		t.Fatalf("get of the current word: %s", v)
	}
	if v := step(4, stOK, cd.value(10, 3), true); v != "" {
		t.Fatalf("delete: %s", v)
	}
	if v := step(5, stOK, cd.value(10, 3), true); v == "" {
		t.Error("a get finding a deleted key passed")
	}
	if cnt.Violations != 4 {
		t.Errorf("%d violations counted, want 4", cnt.Violations)
	}
	lossy := newConnModel(16, true)
	lossy.vals[local] = cd.value(10, 1)
	if v := lossy.check(s, cd, 0, 2, 1, stNotFound, 0, false, &cnt); v != "" {
		t.Errorf("a miss in a cache must be legal: %s", v)
	}
	if v := lossy.check(s, cd, 0, 2, 1, stOK, cd.value(10, 0), true, &cnt); v == "" {
		t.Error("a cache hit carrying a stale word passed")
	}
}

// Every workload, end to end and traced, in miniature: each run must
// measure exactly the names BENCHMARK.json lists for its mode, and the
// traced run must leave its spans behind.
func TestEveryWorkloadReportsExactlyTheListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns oaserver and runs every workload")
	}
	spec, root := testSpec(t)
	listed := func(ms []metricSpec) map[string]bool {
		out := map[string]bool{}
		for _, m := range ms {
			out[m.Name] = true
		}
		return out
	}
	t.Cleanup(killLive)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{root: root, workload: w.Name, seed: 1, seconds: 1, trace: traced}
			if traced {
				cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			r, err := execute(cfg, spec)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if r.rep.Failed != 0 || !r.rep.Correct || r.rep.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d correct %v", w.Name, traced, r.rep.Attempted, r.rep.Failed, r.rep.Correct)
			}
			if _, err := r.resultLine(); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := listed(spec.EndToEnd)
			if traced {
				want = listed(spec.PerLayer)
			}
			for name := range want {
				if _, ok := r.rep.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: metric %s not measured", w.Name, traced, name)
				}
			}
			if traced {
				if st, err := os.Stat(cfg.traceOut); err != nil || st.Size() == 0 {
					t.Errorf("%s: no spans written: %v", w.Name, err)
				}
			}
		}
	}
}
