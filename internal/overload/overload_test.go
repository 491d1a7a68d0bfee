package overload

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"idicn/internal/obs"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	})
}

func TestMiddlewareAdmits(t *testing.T) {
	c := NewController(Config{MinConcurrency: 1, MaxConcurrency: 1})
	h := c.Middleware(okHandler())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := c.Admitted(); got != 1 {
		t.Fatalf("admitted = %d, want 1", got)
	}
	if got := c.Shed(); got != 0 {
		t.Fatalf("shed = %d, want 0", got)
	}
	if got := c.Queue().Inflight(); got != 0 {
		t.Fatalf("inflight after request = %d, want 0 (ticket released)", got)
	}
}

func TestMiddlewareShedsWhileDraining(t *testing.T) {
	c := NewController(Config{})
	c.SetDraining(func() bool { return true })
	h := c.Middleware(okHandler())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("body = %q, want draining reason", rec.Body.String())
	}
	if got := c.Shed(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestMiddlewareShedsExhaustedDeadline(t *testing.T) {
	c := NewController(Config{})
	h := c.Middleware(okHandler())
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(DeadlineHeader, "0")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("body = %q, want deadline reason", rec.Body.String())
	}
	if got := c.Admitted(); got != 0 {
		t.Fatalf("admitted = %d, want 0", got)
	}
}

// TestMiddlewareAdmitsGarbledDeadline: a budget that does not parse as a
// finite, in-range number is ignored, not read as already expired — no
// shed and no brownout pressure.
func TestMiddlewareAdmitsGarbledDeadline(t *testing.T) {
	c := NewController(Config{})
	h := c.Middleware(okHandler())
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(DeadlineHeader, "NaN")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if got := c.Admitted(); got != 1 {
		t.Fatalf("admitted = %d, want 1", got)
	}
	if got := c.Shed(); got != 0 {
		t.Fatalf("shed = %d, want 0", got)
	}
}

// TestMiddlewareShedsQueueFull: with the single slot occupied and the
// one-deep queue holding a waiter, the next request is rejected with 503 +
// Retry-After in well under its budget — shed at the queue, not parked.
func TestMiddlewareShedsQueueFull(t *testing.T) {
	c := NewController(Config{MinConcurrency: 1, MaxConcurrency: 1, QueueCapacity: 1, QueueDeadline: 5 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	blocking := c.Middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		_, _ = io.WriteString(w, "slow ok")
	}))

	done := make(chan int, 2)
	serve := func() {
		rec := httptest.NewRecorder()
		blocking.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		done <- rec.Code
	}
	go serve() // occupies the slot
	<-entered
	go serve() // parks in the queue
	waitFor(t, "waiter parked", func() bool { return c.Queue().Depth() == 1 })

	start := time.Now()
	rec := httptest.NewRecorder()
	blocking.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "queue full") {
		t.Fatalf("body = %q, want queue-full reason", rec.Body.String())
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("queue-full shed took %v, want immediate rejection", elapsed)
	}

	close(release)
	<-entered // the queued request enters once the slot frees up
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d", code)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request finished with %d", code)
	}
	if got := c.Admitted(); got != 2 {
		t.Fatalf("admitted = %d, want 2", got)
	}
	if got := c.Shed(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestMiddlewareShedsLowPriorityUnderBrownout(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Window: 1, UpFraction: 0.5, DownFraction: 0.1, CalmWindows: 2})
	for i := 0; i < 3; i++ {
		b.Observe(true)
	}
	if b.Tier() != TierShedLow {
		t.Fatalf("setup: tier = %v, want %v", b.Tier(), TierShedLow)
	}
	c := NewController(Config{Brownout: b})
	h := c.Middleware(okHandler())

	low := httptest.NewRequest(http.MethodGet, "/", nil)
	low.Header.Set(PriorityHeader, "low")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, low)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("low-priority status = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "low-priority") {
		t.Fatalf("body = %q, want low-priority reason", rec.Body.String())
	}

	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("normal-priority status = %d, want 200 (only low-priority sheds)", rec2.Code)
	}
}

// TestRegisterMetrics: every admission decision surfaces on the text
// endpoint under <component>_overload_* names.
func TestRegisterMetrics(t *testing.T) {
	c := NewController(Config{MinConcurrency: 2, MaxConcurrency: 2})
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg, "proxy")
	h := c.Middleware(okHandler())

	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	c.SetDraining(func() bool { return true })
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))

	var sb strings.Builder
	reg.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"proxy_overload_admitted_total 1\n",
		"proxy_overload_shed_total 1\n",
		"proxy_overload_shed_draining_total 1\n",
		"proxy_overload_shed_queue_full_total 0\n",
		"proxy_overload_queue_wait_seconds_count 1\n",
		"proxy_overload_limit 2\n",
		"proxy_overload_inflight 0\n",
		"proxy_overload_queue_depth 0\n",
		"proxy_overload_brownout_tier 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}
