// Command bench is the repository's benchmark: two workloads on the
// library (through the public oamem constructors) and two on the served
// request path (the real cmd/oaserver, spawned on loopback), each with a
// correctness oracle. BENCHMARK.json at the repo root names the
// workloads, metrics and regression bounds; README.md in this directory
// explains them.
//
//	bash bench/run.sh -workload hash-update -seed 1            end-to-end metrics
//	bash bench/run.sh -workload hash-update -seed 1 -trace 1   per-layer metrics, spans to -trace-out
//	bash bench/run.sh -all [-out runs.jsonl]                   every workload, one process each
//	bash bench/run.sh compare A.jsonl B.jsonl                  verdict per (metric, workload)
//
// (or `go run -C bench . …`, which uses the default Go build cache
// instead of one inside the checkout).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

var selfPID = os.Getpid()

// runConfig is one invocation.
type runConfig struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
}

// phaseReport is one phase's length and ledger.
type phaseReport struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Counts  counts  `json:"counts"`
}

// report is everything one run measured and where; -out appends it as
// one JSON line, which is what `compare` reads.
type report struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Env       envStamp            `json:"env"`
	Phases    []phaseReport       `json:"phases"`
	PacedRate int                 `json:"paced_rate_per_s,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
	// Series keeps the per-slice values a median was taken over, so a
	// report shows whether a run was steady or bimodal.
	Series    map[string][]float64 `json:"series,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
	SpinMs    [2]float64           `json:"spin_ms"` // the calibration spin before and after the run
	SpinDrift float64              `json:"spin_drift"`
	Noisy     bool                 `json:"noisy"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Correct   bool                 `json:"correct"`
	Error     string               `json:"error,omitempty"`
}

// run is the state of one workload run.
type run struct {
	cfg  runConfig
	spec *benchSpec
	tr   *tracer // nil when untraced
	rep  report
}

func (r *run) set(name string, v float64, n int) {
	r.rep.Metrics[name] = measured{Value: v, N: n}
}

// na reports metrics this workload has no source for as 0 over 0 samples.
func (r *run) na(names ...string) {
	for _, n := range names {
		r.rep.Metrics[n] = measured{}
	}
}

func (r *run) value(name string) float64 { return r.rep.Metrics[name].Value }

// dur is a share of the run's -seconds: every phase is one, so a short
// run is the full run in miniature.
func (r *run) dur(share float64) time.Duration {
	return time.Duration(share * r.cfg.seconds * float64(time.Second))
}

func (r *run) phase(name string, seconds float64, c counts) {
	r.rep.Phases = append(r.rep.Phases, phaseReport{Name: name, Seconds: seconds, Counts: c})
}

func (r *run) series(name string, xs []float64) {
	if r.rep.Series == nil {
		r.rep.Series = map[string][]float64{}
	}
	r.rep.Series[name] = xs
}

func (r *run) note(format string, args ...any) {
	r.rep.Notes = append(r.rep.Notes, fmt.Sprintf(format, args...))
}

// repeatSetup says whether set-up is sampled repeatedly: in a full
// end-to-end run, not in a traced run (which does not report set-up) nor
// in one too short to be more than a smoke test.
func (r *run) repeatSetup() bool { return !r.cfg.trace && r.cfg.seconds >= 5 }

// streamLen is the number of requests pre-encoded per connection: the
// bound, or less for a short run (at most ~0.5M requests/s/connection).
func (r *run) streamLen() int {
	return min(streamRequests, max(1<<14, int(r.cfg.seconds*500000)))
}

var workloads = map[string]func(*run) error{
	"hash-update":      hashUpdate.runStructure,
	"skiplist-read":    skiplistRead.runStructure,
	"serve-bin-mixed":  serveBinMixed.run,
	"serve-resp-cache": serveRespCache.run,
}

// execute runs one workload and fills in the report; the error is what
// makes the run incorrect (an oracle violation, a broken server
// contract, a failed set-up).
func execute(cfg runConfig, spec *benchSpec) (*run, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, spec: spec}
	r.rep = report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Env: stampEnv(cfg.root), Metrics: map[string]measured{},
	}
	if cfg.trace {
		r.tr = newTracer(time.Now(), 1+max(setWorkers, serveConns))
	}
	before := spin()
	err := fn(r)
	after := spin()
	r.rep.SpinMs = [2]float64{before.Seconds() * 1e3, after.Seconds() * 1e3}
	r.rep.SpinDrift = abs(after.Seconds()/before.Seconds() - 1)
	r.rep.Noisy = r.rep.SpinDrift > 0.10
	r.set("host.spin_drift", r.rep.SpinDrift, 2)

	for _, p := range r.rep.Phases {
		r.rep.Attempted += p.Counts.Attempted
		r.rep.Failed += p.Counts.failed()
	}
	if r.rep.Attempted > 0 {
		r.set("fail_share", float64(r.rep.Failed)/float64(r.rep.Attempted), int(r.rep.Attempted))
	}
	r.rep.Correct = err == nil
	if err != nil {
		r.rep.Error = err.Error()
		if errors.Is(err, errOracle) && r.rep.Failed == 0 {
			r.rep.Failed = 1 // a broken conservation law is a failure no single operation owns
		}
	}
	if r.tr != nil && cfg.traceOut != "" {
		n, werr := r.tr.write(cfg.traceOut)
		if werr != nil {
			return r, errors.Join(err, werr)
		}
		r.note("%d spans written to %s", n, cfg.traceOut)
	}
	return r, err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// resultLine is the last line of standard output, the one the
// acceptance driver parses: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one, each exactly as BENCHMARK.json
// lists them.
func (r *run) resultLine() ([]byte, error) {
	list := r.spec.EndToEnd
	if r.cfg.trace {
		list = r.spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.rep.Correct, max(r.rep.Attempted, 1), r.rep.Failed, map[string]value{}}
	var missing []string
	for _, m := range list {
		got, ok := r.rep.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out.Metrics[m.Name] = value{got.Value, m.Unit}
	}
	if len(missing) > 0 && r.rep.Correct {
		return nil, fmt.Errorf("BENCHMARK.json lists metrics this run did not measure: %s", strings.Join(missing, ", "))
	}
	for name := range r.rep.Metrics {
		if _, _, ok := r.spec.find(name); !ok {
			return nil, fmt.Errorf("the run measured %q, which BENCHMARK.json does not list", name)
		}
	}
	return json.Marshal(out)
}

// print writes the human-readable report.
func (r *run) print() {
	rep := &r.rep
	fmt.Printf("workload %s  seed %d  seconds %g  traced %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	e := rep.Env
	fmt.Printf("env  nproc %d  GOMAXPROCS %d  %s  kernel %s  git %s dirty=%v\n",
		e.NProc, e.GOMAXPROCS, e.Go, e.Kernel, e.GitSHA, e.GitDirty)
	for _, p := range rep.Phases {
		c := p.Counts
		fmt.Printf("phase %-16s %7.2fs  attempted %-10d ok %-10d failed %d (busy %d capacity %d errors %d dropped %d violations %d)\n",
			p.Name, p.Seconds, c.Attempted, c.OK, c.failed(), c.Busy, c.Capacity, c.Errors, c.Dropped, c.Violations)
	}
	if rep.PacedRate > 0 {
		fmt.Printf("paced rate %d req/s\n", rep.PacedRate)
	}
	names := sortedKeys(rep.Metrics)
	for _, endToEnd := range []bool{true, false} {
		for _, name := range names {
			m, e2e, ok := r.spec.find(name)
			if !ok || e2e != endToEnd {
				continue
			}
			kind := "layer "
			if e2e {
				kind = "metric"
			}
			v := rep.Metrics[name]
			if v.N == 0 {
				fmt.Printf("%s %-28s %14s %-6s (not applicable to this workload)\n", kind, name, "0", m.Unit)
				continue
			}
			fmt.Printf("%s %-28s %14.6g %-6s n=%d\n", kind, name, v.Value, m.Unit, v.N)
		}
	}
	for _, n := range rep.Notes {
		fmt.Println("note ", n)
	}
	for _, name := range sortedKeys(rep.Series) {
		fmt.Printf("series %s:", name)
		for _, x := range rep.Series[name] {
			fmt.Printf(" %.4g", x)
		}
		fmt.Println()
	}
	fmt.Printf("host calibration spin %.1f ms before, %.1f ms after: drift %.3f, noisy %v\n",
		rep.SpinMs[0], rep.SpinMs[1], rep.SpinDrift, rep.Noisy)
	if rep.Error != "" {
		fmt.Println("FAILED:", rep.Error)
	}
}

func appendReport(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	// main keeps its OS thread so that the parent-death signal set on
	// spawned servers is tied to this process's life.
	runtime.LockOSThread()
	os.Exit(realMain())
}

func realMain() int {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		return compareMain(os.Args[2:])
	}
	var (
		cfg      runConfig
		all      = flag.Bool("all", false, "run every workload, each in its own process")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		out      = flag.String("out", "", "append the full report to this file as one JSON line (input to `compare`)")
		seconds  = flag.Float64("seconds", 0, "length of the measured phases (default: run_seconds of BENCHMARK.json)")
		traceOut = flag.String("trace-out", "", "where a traced run writes its spans as JSONL (default .bench_build/spans-<workload>.jsonl)")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg.root, cfg.seed, cfg.seconds, cfg.trace, cfg.traceOut = root, *seed, *seconds, *trace != 0, *traceOut
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if *all {
		return runAll(spec)
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(root, ".bench_build", "spans-"+cfg.workload+".jsonl")
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}

	// A signal must not leave a server behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killLive()
		os.Exit(1)
	}()
	defer killLive()

	r, err := execute(cfg, spec)
	if r == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	r.print()
	if *out != "" {
		if werr := appendReport(*out, &r.rep); werr != nil {
			fmt.Fprintln(os.Stderr, "bench:", werr)
			return 2
		}
	}
	line, lerr := r.resultLine()
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "bench:", lerr)
		return 2
	}
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

// runAll runs every workload of BENCHMARK.json in turn, each in a fresh
// process of this binary with the flags given, so that no workload
// inherits another's heap or scheduler state.
func runAll(spec *benchSpec) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "all" && f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	status := 0
	for _, w := range spec.Workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
			status = 1
		}
		fmt.Println()
	}
	return status
}
