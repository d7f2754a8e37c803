package obs

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler serves r in Prometheus text exposition format. A nil
// registry serves an empty exposition, so wiring is unconditional.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// MetricsJSONHandler serves r's snapshot (buckets, quantiles included) as
// indented JSON.
func MetricsJSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// HealthHandler answers liveness probes: 200 "ok\n" unconditionally. A
// process that can still serve this handler is alive; readiness (is it
// willing to take work?) is a separate, service-specific route.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
}

// NewServeMux builds the observatory endpoint set on one mux:
//
//	/healthz       liveness probe (200 "ok")
//	/metrics       Prometheus text exposition of reg
//	/metrics.json  JSON snapshot of reg (quantiles included)
//	/debug/pprof/  the standard runtime profiles (heap, goroutine, profile, ...)
//
// The pprof routes mirror net/http/pprof's DefaultServeMux registrations but
// on an explicit mux, so callers never have to expose DefaultServeMux. Both
// daemons in the repo (runmon serve, schedd) build on this mux, so they
// report liveness uniformly.
func NewServeMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/healthz", HealthHandler())
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.Handle("/metrics.json", MetricsJSONHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeUntil serves h on ln until ctx is canceled, then shuts the server
// down gracefully (in-flight requests get up to five seconds to finish).
// It returns nil on a clean shutdown; http.ErrServerClosed is never
// surfaced. schedd and runmon serve (through ServeLoop) sit on this so
// SIGINT and SIGTERM always flush cleanly instead of killing the process
// mid-request.
func ServeUntil(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// ServeLoop is ServeUntil plus a managed background task: the shape every
// daemon in the repo has (runmon serve tails a ledger, schedd keeps none). It serves h on ln until ctx is
// canceled, runs bg (when non-nil) on a context that is canceled as soon as
// serving stops, and returns only after both have drained. The first error
// wins: a serve failure is reported over a background failure, and a clean
// shutdown returns whatever the background task returned (nil included).
func ServeLoop(ctx context.Context, ln net.Listener, h http.Handler, bg func(context.Context) error) error {
	bgCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	if bg != nil {
		go func() { done <- bg(bgCtx) }()
	}
	err := ServeUntil(ctx, ln, h)
	cancel()
	var bgErr error
	if bg != nil {
		bgErr = <-done
	}
	if err != nil {
		return err
	}
	return bgErr
}
