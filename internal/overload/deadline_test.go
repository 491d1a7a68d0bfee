package overload

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestDeadlineHeaderRoundTrip(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	h := http.Header{}
	SetDeadlineHeader(ctx, h)
	got, ok := HeaderDeadline(h)
	if !ok {
		t.Fatal("HeaderDeadline: header not parsed")
	}
	if got <= 0 || got > 250*time.Millisecond {
		t.Fatalf("round-tripped budget = %v, want in (0, 250ms]", got)
	}
}

func TestDeadlineHeaderAbsentWithoutDeadline(t *testing.T) {
	h := http.Header{}
	SetDeadlineHeader(context.Background(), h)
	if v := h.Get(DeadlineHeader); v != "" {
		t.Fatalf("header stamped without a deadline: %q", v)
	}
	if _, ok := HeaderDeadline(h); ok {
		t.Fatal("HeaderDeadline parsed an absent header")
	}
}

func TestDeadlineHeaderMalformed(t *testing.T) {
	for _, v := range []string{"bogus", "-5", "1e999x", "", "NaN", "Inf", "-Inf", "1e300", "9.3e12"} {
		h := http.Header{}
		if v != "" {
			h.Set(DeadlineHeader, v)
		}
		if _, ok := HeaderDeadline(h); ok {
			t.Fatalf("HeaderDeadline accepted %q", v)
		}
	}
}

// FuzzHeaderDeadline: whatever a peer sends, an accepted budget is never
// negative, so a garbled header cannot arrive as an already-expired
// deadline.
func FuzzHeaderDeadline(f *testing.F) {
	for _, v := range []string{"250", "12.5", "0", "-5", "NaN", "Inf", "1e300", "9.3e12", "9.2e12", "bogus"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		h := http.Header{}
		h.Set(DeadlineHeader, v)
		if d, ok := HeaderDeadline(h); ok && d < 0 {
			t.Fatalf("HeaderDeadline(%q) = %v, ok", v, d)
		}
	})
}

func TestContextWithHeaderDeadline(t *testing.T) {
	// Fresh context: the header supplies the deadline.
	h := http.Header{}
	h.Set(DeadlineHeader, "50")
	ctx, cancel := ContextWithHeaderDeadline(context.Background(), h)
	if cancel == nil {
		t.Fatal("header budget on a fresh context: want non-nil cancel")
	}
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("no deadline applied")
	}
	if rem := time.Until(dl); rem <= 0 || rem > 50*time.Millisecond {
		t.Fatalf("applied budget = %v, want in (0, 50ms]", rem)
	}

	// Existing tighter deadline wins: header adds nothing.
	tight, tcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer tcancel()
	ctx2, cancel2 := ContextWithHeaderDeadline(tight, h)
	if cancel2 != nil {
		t.Fatal("header looser than ctx: want nil cancel (no-op)")
	}
	if dl2, _ := ctx2.Deadline(); time.Until(dl2) > 5*time.Millisecond {
		t.Fatalf("deadline loosened to %v", time.Until(dl2))
	}

	// Header tighter than the existing deadline wins.
	loose, lcancel := context.WithTimeout(context.Background(), time.Minute)
	defer lcancel()
	ctx3, cancel3 := ContextWithHeaderDeadline(loose, h)
	if cancel3 == nil {
		t.Fatal("header tighter than ctx: want non-nil cancel")
	}
	defer cancel3()
	if dl3, _ := ctx3.Deadline(); time.Until(dl3) > 50*time.Millisecond {
		t.Fatalf("header did not tighten deadline: %v remaining", time.Until(dl3))
	}

	// No header: pass-through.
	ctx4, cancel4 := ContextWithHeaderDeadline(context.Background(), http.Header{})
	if cancel4 != nil {
		t.Fatal("no header: want nil cancel")
	}
	if _, ok := ctx4.Deadline(); ok {
		t.Fatal("no header: deadline appeared from nowhere")
	}
}

// TestTransportStampsHeader: the client half — outgoing requests carry the
// remaining context budget, and a pre-set header is left alone.
func TestTransportStampsHeader(t *testing.T) {
	seen := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get(DeadlineHeader)
	}))
	defer srv.Close()
	client := &http.Client{Transport: Transport(nil)}

	// With a context deadline: stamped.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp.Body.Close()
	h := http.Header{}
	h.Set(DeadlineHeader, <-seen)
	if got, ok := HeaderDeadline(h); !ok || got <= 0 || got > 200*time.Millisecond {
		t.Fatalf("stamped budget = %v (ok=%v), want in (0, 200ms]", got, ok)
	}

	// Without a deadline: no header.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	resp2, err := client.Do(req2)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp2.Body.Close()
	if v := <-seen; v != "" {
		t.Fatalf("header stamped without a deadline: %q", v)
	}

	// Pre-set header is preserved, not overwritten.
	req3, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	req3.Header.Set(DeadlineHeader, "7.000")
	resp3, err := client.Do(req3)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp3.Body.Close()
	if v := <-seen; v != "7.000" {
		t.Fatalf("pre-set header overwritten: %q", v)
	}
}
