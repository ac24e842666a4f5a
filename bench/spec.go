package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the one place that names the workloads,
// the metrics, their units and directions, and the regression bounds.
// The benchmark reads it rather than repeating it, and refuses to report
// a metric it does not list or to omit one it does.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// find returns the metric's entry and whether it is an end-to-end one.
func (s *benchSpec) find(name string) (m metricSpec, endToEnd, ok bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, false, true
		}
	}
	return metricSpec{}, false, false
}

// gated are the metrics `bench compare` gives a verdict on: every
// end-to-end metric with its bound from BENCHMARK.json, plus two that
// file cannot bound because its end-to-end list holds only metrics every
// workload reports and none that is ever 0. oa_over_norecl (the paper's
// ratio; structure workloads only) may fall by a tenth; fail_share
// (0 on a healthy run) may rise by 0.001 absolute.
func (s *benchSpec) gated() []gate {
	var gs []gate
	for _, m := range s.EndToEnd {
		gs = append(gs, gate{metricSpec: m})
	}
	for _, extra := range []gate{
		{metricSpec: metricSpec{Name: "oa_over_norecl", Bound: 0.10}},
		{metricSpec: metricSpec{Name: "fail_share", Bound: 0.001}, absolute: true},
	} {
		if m, _, ok := s.find(extra.Name); ok {
			extra.Unit, extra.Better = m.Unit, m.Better
			gs = append(gs, extra)
		}
	}
	return gs
}

type gate struct {
	metricSpec
	absolute bool // Bound is a difference, not a share of the base
}
