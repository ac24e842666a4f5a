package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// HandlerFor builds the observability HTTP handler around a registry
// source. The indirection lets a long-running process (oastress -all)
// swap registries between runs while the listener stays up; get may
// return nil, which renders as 503 until a registry is installed.
//
// Routes:
//
//	/metrics       Prometheus text exposition
//	/trace         protocol event trace as Chrome trace_event JSON (load
//	               in chrome://tracing or Perfetto)
//	/debug/pprof/  the standard net/http/pprof handlers
//
// Routes registered on the active registry with Registry.Handle (the
// server's /debug/slowlog) are served before the 404 fallback.
func HandlerFor(get func() *Registry) http.Handler {
	mux := http.NewServeMux()
	withReg := func(serve func(r *Registry, w http.ResponseWriter, req *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			r := get()
			if r == nil {
				http.Error(w, "no registry active", http.StatusServiceUnavailable)
				return
			}
			serve(r, w, req)
		}
	}
	mux.HandleFunc("/metrics", withReg(func(r *Registry, w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	}))
	mux.HandleFunc("/trace", withReg(func(r *Registry, w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteTraceChrome(w)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if r := get(); r != nil {
			if h := r.route(req.URL.Path); h != nil {
				h.ServeHTTP(w, req)
				return
			}
		}
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "oamem observability: /metrics /trace /debug/pprof/")
		if r := get(); r != nil {
			for _, p := range r.Routes() {
				fmt.Fprint(w, " "+p)
			}
		}
		fmt.Fprint(w, "\n")
	})
	return mux
}

// Handler serves this registry on the observability routes.
func (r *Registry) Handler() http.Handler {
	return HandlerFor(func() *Registry { return r })
}
