package proxy

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idicn/internal/idicn/names"
	"idicn/internal/idicn/resolver"
)

// coopStack builds two sibling proxies in front of one origin.
func coopStack(t *testing.T) (*stack, *Proxy, *httptest.Server) {
	t.Helper()
	s := newStack(t)
	// Rebuild the sibling pair so each knows the other. Proxy A is the
	// stack's proxy; proxy B gets A as a peer and vice versa.
	resClient := s.proxy.resolver
	pb := New(resClient)
	pbSrv := httptest.NewServer(pb)
	t.Cleanup(pbSrv.Close)
	// Stack proxy learns about B; B learns about A.
	WithPeers(pbSrv.URL)(s.proxy)
	WithPeers(s.proxySrv.URL)(pb)
	return s, pb, pbSrv
}

func TestCoopServesFromSibling(t *testing.T) {
	s, pb, _ := coopStack(t)
	ctx := context.Background()
	body := []byte("shared across siblings")
	n, err := s.org.Publish(ctx, "shared", "text/plain", body)
	if err != nil {
		t.Fatal(err)
	}

	// Warm sibling B from the origin.
	if _, _, err := pb.Get(ctx, n); err != nil {
		t.Fatal(err)
	}
	originBefore := s.org.OriginHits()

	// Proxy A misses locally but must find the copy at B, not the origin.
	obj, fromCache, err := s.proxy.Get(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache {
		t.Error("reported cache hit on first fetch")
	}
	if !bytes.Equal(obj.Body, body) {
		t.Fatalf("body = %q", obj.Body)
	}
	if s.org.OriginHits() != originBefore {
		t.Error("cooperative fetch still touched the origin")
	}
	cs := s.proxy.CoopStats()
	if cs.PeerHits != 1 || cs.PeerProbes != 1 {
		t.Errorf("A coop stats = %+v", cs)
	}
	if bs := pb.CoopStats(); bs.PeerServed != 1 {
		t.Errorf("B coop stats = %+v", bs)
	}

	// The object is now cached at A too: a repeat is a local hit.
	if _, fromCache, err := s.proxy.Get(ctx, n); err != nil || !fromCache {
		t.Errorf("repeat after coop fetch: fromCache=%v err=%v", fromCache, err)
	}
}

func TestCoopFallsThroughToOrigin(t *testing.T) {
	s, pb, _ := coopStack(t)
	ctx := context.Background()
	n, err := s.org.Publish(ctx, "coldobj", "text/plain", []byte("cold"))
	if err != nil {
		t.Fatal(err)
	}
	// Neither proxy has it: A probes B (miss), then fetches from origin.
	obj, _, err := s.proxy.Get(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj.Body, []byte("cold")) {
		t.Fatalf("body = %q", obj.Body)
	}
	cs := s.proxy.CoopStats()
	if cs.PeerProbes != 1 || cs.PeerHits != 0 {
		t.Errorf("coop stats = %+v", cs)
	}
	if bs := pb.CoopStats(); bs.PeerServed != 0 {
		t.Errorf("B served %d, want 0", bs.PeerServed)
	}
	// Crucially, B's miss on the scoped lookup must NOT have made B fetch
	// the object (no recursion): B's cache stays empty.
	if pb.CacheLen() != 0 {
		t.Error("scoped lookup caused recursive fetch at sibling")
	}
}

func TestCoopLookupIsCacheOnly(t *testing.T) {
	s, _, pbSrv := coopStack(t)
	ctx := context.Background()
	n, err := s.org.Publish(ctx, "probe-me", "text/plain", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// A coop-marked request for an uncached name returns 404 from B.
	req, _ := http.NewRequest(http.MethodGet, pbSrv.URL+"/", nil)
	req.Host = n.DNS()
	req.Header.Set(coopHeader, "1")
	resp, err := pbSrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("coop miss status = %d, want 404", resp.StatusCode)
	}
}

func TestCoopResponseIsVerified(t *testing.T) {
	// A malicious "sibling" returns garbage; the proxy must reject it and
	// fall through to the origin.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "poisoned")
	}))
	defer evil.Close()

	s := newStack(t)
	WithPeers(evil.URL)(s.proxy)
	ctx := context.Background()
	body := []byte("authentic")
	n, err := s.org.Publish(ctx, "target", "text/plain", body)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := s.proxy.Get(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj.Body, body) {
		t.Fatalf("served %q; cache poisoned by evil sibling", obj.Body)
	}
	if st := s.proxy.Stats(); st.Rejected != 1 {
		t.Errorf("stats = %+v, want 1 rejection", st)
	}
}

func TestGetCoalescedSharesOneFetch(t *testing.T) {
	registry := resolver.NewRegistry()
	resSrv := httptest.NewServer(resolver.NewServer(registry))
	defer resSrv.Close()

	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 77
	p, _ := names.PrincipalFromSeed(seed)
	body := []byte("coalesce me")
	sig := p.SignContent("herd", body)
	n, _ := p.Name("herd")

	var fetches atomic.Int64
	release := make(chan struct{})
	slowOrigin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		<-release // hold all concurrent fetches open
		h := w.Header()
		h.Set("X-Idicn-Name", n.String())
		h.Set("X-Idicn-Signature", "ed25519="+base64.StdEncoding.EncodeToString(sig))
		h.Set("X-Idicn-Publisher", "ed25519="+base64.StdEncoding.EncodeToString(p.PublicKey()))
		w.Write(body)
	}))
	defer slowOrigin.Close()

	reg, _ := resolver.NewRegistration(p, "herd", 1, []string{slowOrigin.URL})
	if err := registry.Register(context.Background(), reg); err != nil {
		t.Fatal(err)
	}
	px := New(resolver.NewClient(resSrv.URL, resSrv.Client()))

	const herd = 16
	var wg sync.WaitGroup
	errs := make([]error, herd)
	bodies := make([][]byte, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obj, _, err := px.GetCoalesced(context.Background(), n)
			errs[i] = err
			if obj != nil {
				bodies[i] = obj.Body
			}
		}(i)
	}
	// Let the herd pile up, then release the origin.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(bodies[i]) != string(body) {
			t.Fatalf("caller %d body = %q", i, bodies[i])
		}
	}
	if got := fetches.Load(); got != 1 {
		t.Errorf("origin saw %d fetches for a coalesced herd, want 1", got)
	}
	// Subsequent calls are plain cache hits.
	if _, fromCache, err := px.GetCoalesced(context.Background(), n); err != nil || !fromCache {
		t.Errorf("post-herd fetch: fromCache=%v err=%v", fromCache, err)
	}
}
