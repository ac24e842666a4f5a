package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// readReports loads a set of runs: the JSON lines `-out` appended.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, rep)
	}
	return reps, sc.Err()
}

// values collects one metric's value from every run of a workload that
// measured it (a metric with no samples is not applicable there).
func values(reps []report, workload, metric string) []float64 {
	var out []float64
	for _, rep := range reps {
		if m, ok := rep.Metrics[metric]; ok && rep.Workload == workload && m.N > 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares candidate runs b against base runs a under gate g. The
// row is unresolved when either side's own spread (inter-quartile
// distance over median) exceeds the bound: a difference smaller than the
// noise is not evidence of "unchanged". Otherwise it regressed when b's
// median is worse than a's by more than the bound — a share of a's
// median, or an absolute difference for gates that say so.
func judge(g gate, a, b []float64) (verdict string, worse float64) {
	ma, mb := median(a), median(b)
	diff := mb - ma
	if g.Better == "higher" {
		diff = -diff
	}
	if g.absolute {
		if diff > g.Bound {
			return verdictRegressed, diff
		}
		return verdictOK, diff
	}
	if ma != 0 {
		worse = diff / abs(ma)
	}
	if spreadShare(a) > g.Bound || spreadShare(b) > g.Bound {
		return verdictUnresolved, worse
	}
	if worse > g.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// compareMain implements `bench compare A.jsonl B.jsonl`: A is the base,
// B the candidate. It exits 1 if any row regressed or is unresolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.jsonl CANDIDATE.jsonl   (files written by -out)")
		return 2
	}
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
	a, err := readReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "metric\tworkload\tbase median [q1, q3] n\tcandidate median [q1, q3] n\tcandidate/base\tworse by\tbound\tverdict")
	bad := 0
	for _, g := range spec.gated() {
		for _, wl := range spec.Workloads {
			va, vb := values(a, wl.Name, g.Name), values(b, wl.Name, g.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse := judge(g, va, vb)
			if verdict != verdictOK {
				bad++
			}
			side := func(v []float64) string {
				q1, _, q3 := quartiles(v)
				return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", median(v), q1, q3, len(v))
			}
			ratio, by, bound := "-", fmt.Sprintf("%+.2f%%", worse*100), fmt.Sprintf("%.0f%%", g.Bound*100)
			if ma := median(va); ma != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g %s", median(vb)/ma, ma, g.Unit)
			}
			if g.absolute {
				by, bound = fmt.Sprintf("%+.6f", worse), fmt.Sprintf("%g abs", g.Bound)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", g.Name, wl.Name, side(va), side(vb), ratio, by, bound, verdict)
		}
	}
	w.Flush()
	for _, set := range []struct {
		name string
		reps []report
	}{{args[0], a}, {args[1], b}} {
		noisy, wrong := 0, 0
		for _, rep := range set.reps {
			if rep.Noisy {
				noisy++
			}
			if !rep.Correct {
				wrong++
			}
		}
		fmt.Printf("%s: %d runs, %d marked noisy, %d incorrect\n", set.name, len(set.reps), noisy, wrong)
		bad += wrong
	}
	if bad > 0 {
		return 1
	}
	return 0
}
