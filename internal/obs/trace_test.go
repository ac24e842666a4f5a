package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestRegistryTrace covers recorder registration: the merged timeline
// offsets thread ids per recorder, trace_events_total is registered exactly
// once and sums across recorders, and /metrics carries it.
func TestRegistryTrace(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)

	reg := NewRegistry()
	a := trace.NewRecorder(2, 8)
	b := trace.NewRecorder(1, 8)
	reg.Trace(a)
	reg.Trace(b)

	a.Ring(0).Record(trace.EvPhase, 3)
	a.Ring(1).Record(trace.EvRestart, uint64(trace.CauseRead))
	b.Ring(0).Record(trace.EvDrain, trace.DrainPayload(5, 2))

	if got := reg.TraceTotal(); got != 3 {
		t.Fatalf("TraceTotal = %d, want 3", got)
	}

	evs := reg.TraceEvents()
	if len(evs) != 3 {
		t.Fatalf("TraceEvents returned %d events, want 3", len(evs))
	}
	// Recorder b's single thread must land on track 2 (after a's two).
	var sawOffset bool
	for _, e := range evs {
		if e.Kind == trace.EvDrain && e.TID == 2 {
			sawOffset = true
		}
	}
	if !sawOffset {
		t.Fatalf("second recorder's thread not offset: %+v", evs)
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "trace_events_total 3") {
		t.Fatalf("Prometheus output missing trace_events_total:\n%s", prom.String())
	}
	if strings.Count(prom.String(), "# TYPE trace_events_total") != 1 {
		t.Fatalf("trace_events_total registered more than once:\n%s", prom.String())
	}
}

// TestTraceEndpoint exercises the /trace route (Chrome trace_event JSON)
// against a live handler.
func TestTraceEndpoint(t *testing.T) {
	trace.SetEnabled(true)
	defer trace.SetEnabled(false)

	reg := NewRegistry()
	rec := trace.NewRecorder(1, 8)
	reg.Trace(rec)
	rec.Ring(0).Record(trace.EvPhase, 7)
	rec.Ring(0).Record(trace.EvRefill, 1)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			b.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return b.String(), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/trace")
	if ctype != "application/json" {
		t.Fatalf("/trace content-type = %q", ctype)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("/trace does not parse as chrome trace: %v\n%s", err, body)
	}
	if len(chrome.TraceEvents) != 2 || chrome.TraceEvents[0].Name != "phase" || chrome.TraceEvents[0].Ph != "i" {
		t.Fatalf("unexpected chrome events: %+v", chrome.TraceEvents)
	}
}
