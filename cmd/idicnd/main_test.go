package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"idicn/internal/overload"
)

func TestRunDemo(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/extra.txt", []byte("from a file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(true, dir, io.Discard, nil, overload.Config{}, time.Second); err != nil {
		t.Fatalf("demo run failed: %v", err)
	}
}

func TestRunRejectsBadContentDir(t *testing.T) {
	if err := run(true, "/nonexistent/surely", nil, nil, overload.Config{}, time.Second); err == nil {
		t.Fatal("bad content dir accepted")
	}
}

// TestStackDebugMetrics drives the full stack over httptest listeners and
// checks that /debug/metrics reflects the traffic: a publish, a cache miss,
// a cache hit, and per-component request counters.
func TestStackDebugMetrics(t *testing.T) {
	var servers []*httptest.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	listen := func(h http.Handler) (string, error) {
		s := httptest.NewServer(h)
		servers = append(servers, s)
		return s.URL, nil
	}
	var logBuf bytes.Buffer
	st, err := newStack(listen, &logBuf, nil, overload.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	n, err := st.origin.Publish(ctx, "welcome", "text/plain", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}

	fetch := func(wantCache string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.proxyURL+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = n.DNS()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proxy fetch: status %s: %s", resp.Status, body)
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache {
			t.Fatalf("X-Cache = %q, want %q", got, wantCache)
		}
	}
	fetch("MISS")
	fetch("HIT")

	resp, err := http.Get(st.debugURL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/metrics: status %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"proxy_requests_total 2",
		"proxy_cache_misses_total 1",
		"proxy_cache_hits_total 1",
		"proxy_content_hits 1",
		"proxy_content_misses 1",
		"proxy_cached_objects 1",
		"origin_published_objects 1",
		"origin_store_hits 1",
		"resolver_registered_names",
		"resolver_requests_total",
		"origin_requests_total",
		"proxy_request_seconds_count 2",
		"proxy_overload_admitted_total 2",
		"proxy_overload_shed_total 0",
		"proxy_overload_queue_wait_seconds_count 2",
		"proxy_overload_brownout_tier 0",
		"origin_overload_admitted_total",
		"resolver_overload_admitted_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/debug/metrics missing %q; body:\n%s", want, metrics)
		}
	}

	for path, want := range map[string]int{
		"/healthz": http.StatusOK, "/readyz": http.StatusOK,
		"/debug/pprof/": http.StatusOK, "/debug/pprof/heap?debug=1": http.StatusOK, "/debug/pprof/cmdline": http.StatusOK,
	} {
		resp, err := http.Get(st.debugURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	log := logBuf.String()
	for _, want := range []string{"component=proxy", "component=origin", "component=resolver", "cache=HIT", "cache=MISS", "status=200"} {
		if !strings.Contains(log, want) {
			t.Errorf("request log missing %q; log:\n%s", want, log)
		}
	}
}
