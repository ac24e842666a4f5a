package obs

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders every registered source in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, c := range r.counters {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.fn())
	}
	for _, g := range r.gauges {
		p("# HELP %s %s\n# TYPE %s gauge\n%s %s\n", g.name, g.help, g.name, g.name, fmtFloat(g.fn()))
	}
	for _, vc := range r.vecCounters {
		p("# HELP %s %s\n# TYPE %s counter\n", vc.name, vc.help, vc.name)
		for i := 0; i < vc.n; i++ {
			p("%s{%s=%q} %d\n", vc.name, vc.label, strconv.Itoa(i), vc.fn(i))
		}
	}
	for _, vg := range r.vecGauges {
		p("# HELP %s %s\n# TYPE %s gauge\n", vg.name, vg.help, vg.name)
		for i := 0; i < vg.n; i++ {
			p("%s{%s=%q} %s\n", vg.name, vg.label, strconv.Itoa(i), fmtFloat(vg.fn(i)))
		}
	}
	for _, te := range r.threads {
		for _, c := range te.cs {
			name := te.prefix + "_" + c.String() + "_total"
			p("# HELP %s per-thread %s counter\n# TYPE %s counter\n", name, c.String(), name)
			for i := 0; i < te.ts.Threads(); i++ {
				p("%s{thread=%q} %d\n", name, strconv.Itoa(i), te.ts.At(i).Load(c))
			}
		}
	}
	for _, he := range r.hists {
		p("# HELP %s %s\n# TYPE %s histogram\n", he.name, he.help, he.name)
		promHist(p, he.name, "", he.h)
	}
	for _, vh := range r.vecHists {
		p("# HELP %s %s\n# TYPE %s histogram\n", vh.name, vh.help, vh.name)
		for i := 0; i < vh.n; i++ {
			promHist(p, vh.name, vh.label+"="+strconv.Quote(strconv.Itoa(i))+",", vh.fn(i))
		}
	}
	return err
}

// promHist renders one histogram's bucket/sum/count series. labels is
// either empty or a `label="v",` prefix spliced before the le label.
func promHist(p func(format string, args ...any), name, labels string, h *Histogram) {
	snap := h.Snapshot()
	var cum uint64
	// The final log₂ bucket absorbs the tail, so it has no finite
	// upper edge; it is folded into +Inf below.
	for b := 0; b < Buckets-1; b++ {
		cum += snap.Counts[b]
		// Bucket b holds samples with bits.Len64(ns) == b, i.e.
		// ns <= 2^b - 1; the edge is exported in seconds.
		le := float64(uint64(1)<<uint(b)-1) / 1e9
		p("%s_bucket{%sle=%q} %d\n", name, labels, fmtFloat(le), cum)
	}
	p("%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, snap.Count)
	if labels == "" {
		p("%s_sum %s\n%s_count %d\n", name, fmtFloat(float64(snap.Sum)/1e9), name, snap.Count)
	} else {
		l := labels[:len(labels)-1] // drop the trailing comma
		p("%s_sum{%s} %s\n%s_count{%s} %d\n", name, l, fmtFloat(float64(snap.Sum)/1e9), name, l, snap.Count)
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
