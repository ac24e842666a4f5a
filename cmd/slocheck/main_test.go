package main

import (
	"strings"
	"testing"
)

func TestHealthVerdict(t *testing.T) {
	block := func(final string, firing ...string) *healthBlock {
		hb := &healthBlock{Final: final, StatesSeen: "ok," + final}
		for _, name := range firing {
			hb.Firing = append(hb.Firing, firingRule{Name: name, Value: 1.5, Threshold: 1})
		}
		return hb
	}
	for _, tc := range []struct {
		name     string
		hb       *healthBlock
		enforced bool
		wantErr  string // substring; "" = accepted
		wantNote string
	}{
		{"ok", block("ok"), true, "", ""},
		{"burn alone, unenforced host", block("degraded", "slo_p99_burn"), false, "", "slo_p99_burn=1.5 (threshold 1)"},
		{"burn alone, enforced host", block("degraded", "slo_p99_burn"), true, "slo_p99_burn=1.5 (threshold 1)", ""},
		{"burn with another rule", block("degraded", "slo_p99_burn", "ring_saturation"), false, "ring_saturation=1.5", ""},
		{"another rule alone", block("degraded", "backlog_growth"), false, "backlog_growth=1.5", ""},
		{"critical", block("critical", "phase_stalled"), false, `"critical"`, ""},
		{"degraded with no rule reported", block("degraded"), false, "refusing the report", ""},
	} {
		note, err := healthVerdict(tc.hb, tc.enforced)
		if (err == nil) != (tc.wantErr == "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(note, tc.wantNote) || (tc.wantNote == "") != (note == "") {
			t.Errorf("%s: note = %q, want %q", tc.name, note, tc.wantNote)
		}
	}
}
