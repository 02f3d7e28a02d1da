package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// RegisterDebug mounts the observability endpoints for r on mux:
//
//	/metrics       Prometheus text format (runtime gauges sampled per scrape)
//	/debug/vars    expvar-style JSON: process globals + r under "pathsep"
//	/debug/pprof/  the standard net/http/pprof profile handlers
//
// The mux is the caller's, so several servers with distinct registries can
// coexist in one process — nothing here touches process-global state.
func RegisterDebug(mux *http.ServeMux, r *Registry) {
	mux.Handle("/metrics", PrometheusHandler(r))
	mux.Handle("/debug/vars", VarsHandler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// PrometheusHandler serves r in the Prometheus text exposition format
// (version 0.0.4), refreshing the "go.*" runtime gauges on every scrape.
func PrometheusHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		CollectRuntime(r)
		w.Header().Set("Content-Type", promContentType)
		var buf bytes.Buffer
		// A bytes.Buffer write cannot fail; errors surface only from the
		// ResponseWriter, where there is no one left to report them to.
		_ = r.WritePrometheus(&buf)
		_, _ = w.Write(buf.Bytes())
	})
}

// VarsHandler serves the expvar-style JSON document: every process-global
// expvar (memstats, cmdline, anything the application published) plus r's
// snapshot under the "pathsep" key. A globally Published "pathsep" var is
// shadowed by r, so each server reports its own registry.
func VarsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var buf bytes.Buffer
		buf.WriteString("{\n")
		expvar.Do(func(kv expvar.KeyValue) {
			if kv.Key == publishKey {
				return
			}
			fmt.Fprintf(&buf, "%q: %s,\n", kv.Key, kv.Value.String())
		})
		snap, err := json.Marshal(r.Snapshot())
		if err != nil {
			snap = []byte("{}")
		}
		fmt.Fprintf(&buf, "%q: %s\n}\n", publishKey, snap)
		_, _ = w.Write(buf.Bytes())
	})
}

// publishKey is the expvar name the registry snapshot is published under.
const publishKey = "pathsep"

var (
	publishMu sync.Mutex
	published *Registry
)

// Publish exposes r's snapshot as the process-global expvar "pathsep", so
// it appears in /debug/vars documents served off the default mux too.
// expvar names are process-global and permanent: the first registry wins
// the name, publishing the same registry again is a no-op, and publishing
// a different one is an explicit error (not a silent ignore).
func Publish(r *Registry) error {
	publishMu.Lock()
	defer publishMu.Unlock()
	switch {
	case published == nil:
		published = r
		reg := r // capture: published itself is guarded by publishMu
		expvar.Publish(publishKey, expvar.Func(func() any { return reg.Snapshot() }))
		return nil
	case published == r:
		return nil
	default:
		return fmt.Errorf("obs: expvar key %q already publishes a different registry", publishKey)
	}
}

// readHeaderTimeout bounds how long a client may take to send one
// request's headers, so a slow-header client cannot hold a goroutine
// forever; idle keep-alive connections between requests are unaffected.
const readHeaderTimeout = 5 * time.Second

// readTimeout bounds how long one whole request may take to arrive, and
// idleTimeout how long a keep-alive connection may sit between requests,
// so a client that stalls mid-request or parks a connection cannot hold
// it forever.
const (
	readTimeout = 60 * time.Second
	idleTimeout = 120 * time.Second
)

// Serve binds addr and serves RegisterDebug's endpoints for r on a
// private mux in a background goroutine. It returns once the listener is
// bound — a bad address fails here, not asynchronously — and the caller
// owns the returned server's lifetime:
//
//	srv, done, err := obs.Serve("localhost:6060", reg)
//	...
//	srv.Shutdown(ctx) // graceful: in-flight scrapes complete
//	<-done            // the serve goroutine has exited
//
// The done channel closes when the serve goroutine exits (after
// Shutdown/Close, or if the listener dies), so the goroutine is
// join-able rather than fire-and-forget. srv.Addr carries the bound
// address (useful with ":0").
func Serve(addr string, r *Registry) (*http.Server, <-chan struct{}, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	RegisterDebug(mux, r)
	srv := &http.Server{
		Addr:              ln.Addr().String(),
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	done := make(chan struct{})
	go func() {
		// Serve returns http.ErrServerClosed on Shutdown/Close; any other
		// error means the listener died, which Shutdown will also surface.
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return srv, done, nil
}
