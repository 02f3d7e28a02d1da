package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeLifecycle starts a debug server on an ephemeral port, scrapes
// it, and shuts it down: the satellite contract that Serve is no longer a
// fire-and-forget ListenAndServe on the default mux.
func TestServeLifecycle(t *testing.T) {
	r := New()
	r.Counter("oracle.queries").Add(5)
	srv, done, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("debug server sets no ReadHeaderTimeout: a slow-header client holds a goroutine forever")
	}
	if srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("debug server ReadTimeout = %v, IdleTimeout = %v: a stalled client holds its connection forever",
			srv.ReadTimeout, srv.IdleTimeout)
	}
	base := "http://" + srv.Addr

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "pathsep_oracle_queries 5") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	code, body := get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: code=%d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"pathsep", "memstats", "cmdline"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q (have %d keys)", key, len(vars))
		}
	}
	var snap Snapshot
	if err := json.Unmarshal(vars["pathsep"], &snap); err != nil {
		t.Fatalf("pathsep var is not a Snapshot: %v", err)
	}
	if snap.Counters["oracle.queries"] != 5 {
		t.Errorf("snapshot counter = %d, want 5", snap.Counters["oracle.queries"])
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-done:
		// serve goroutine joined
	case <-time.After(5 * time.Second):
		t.Fatal("serve goroutine did not exit after Shutdown")
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}

// TestServeBadAddr asserts bind failures surface synchronously.
func TestServeBadAddr(t *testing.T) {
	if _, _, err := Serve("256.256.256.256:0", New()); err == nil {
		t.Fatal("want a bind error for an unusable address")
	}
}

// TestPublishRepeatIsError pins the satellite fix: the first registry
// wins the expvar name, re-publishing it is idempotent, and a different
// registry is an explicit error instead of a silent ignore.
func TestPublishRepeatIsError(t *testing.T) {
	a, b := New(), New()
	if err := Publish(a); err != nil {
		t.Fatalf("first Publish: %v", err)
	}
	if err := Publish(a); err != nil {
		t.Fatalf("re-Publish of the same registry: %v", err)
	}
	if err := Publish(b); err == nil {
		t.Fatal("Publish of a second registry must be an explicit error")
	}
}
