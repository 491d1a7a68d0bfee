package proxy

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/base64"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"idicn/internal/idicn/names"
	"idicn/internal/idicn/origin"
	"idicn/internal/idicn/resolver"
)

// stack wires resolver + origin + proxy over httptest and returns them with
// the proxy's test server.
type stack struct {
	registry *resolver.Registry
	org      *origin.Server
	proxy    *Proxy
	proxySrv *httptest.Server
}

func newStack(t testing.TB) *stack {
	t.Helper()
	registry := resolver.NewRegistry()
	resSrv := httptest.NewServer(resolver.NewServer(registry))
	t.Cleanup(resSrv.Close)

	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 42
	p, err := names.PrincipalFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	var org *origin.Server
	orgSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		org.ServeHTTP(w, r)
	}))
	t.Cleanup(orgSrv.Close)
	org = origin.New(p, resolver.NewClient(resSrv.URL, resSrv.Client()), orgSrv.URL)

	px := New(resolver.NewClient(resSrv.URL, resSrv.Client()))
	pxSrv := httptest.NewServer(px)
	t.Cleanup(pxSrv.Close)
	return &stack{registry: registry, org: org, proxy: px, proxySrv: pxSrv}
}

// getName issues a GET to the proxy with the Host header set to the name's
// DNS form, as a PAC-configured browser would.
func (s *stack) getName(t *testing.T, n names.Name) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, s.proxySrv.URL+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = n.DNS()
	resp, err := s.proxySrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestEndToEndNamedFetch(t *testing.T) {
	s := newStack(t)
	body := []byte("the named content")
	n, err := s.org.Publish(context.Background(), "story", "text/plain", body)
	if err != nil {
		t.Fatal(err)
	}

	// First fetch: miss, resolved and fetched from origin, verified.
	resp := s.getName(t, n)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) != string(body) {
		t.Fatalf("body = %q", got)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Errorf("first fetch X-Cache = %q", xc)
	}

	// Second fetch: cache hit, origin untouched.
	before := s.org.OriginHits()
	resp2 := s.getName(t, n)
	got2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if string(got2) != string(body) {
		t.Fatalf("cached body = %q", got2)
	}
	if xc := resp2.Header.Get("X-Cache"); xc != "HIT" {
		t.Errorf("second fetch X-Cache = %q", xc)
	}
	if s.org.OriginHits() != before {
		t.Error("cache hit still touched the origin")
	}
	st := s.proxy.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyRejectsTamperedContent(t *testing.T) {
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 43
	p, _ := names.PrincipalFromSeed(seed)
	n, _ := p.Name("evil")
	other, _ := p.Name("other")

	for _, tc := range []struct {
		name string
		// What the malicious "origin" registered for n answers with.
		claims names.Name
		signed string
		body   string
	}{
		{"tampered bytes under a stale signature", n, "genuine", "tampered"},
		// Self-consistent and correctly signed, so it verifies — as a
		// different object of the same publisher than the one asked for.
		{"valid object for another label", other, "genuine", "genuine"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			registry := resolver.NewRegistry()
			resSrv := httptest.NewServer(resolver.NewServer(registry))
			defer resSrv.Close()

			sig := p.SignContent(tc.claims.Label, []byte(tc.signed))
			evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h := w.Header()
				h.Set("X-Idicn-Name", tc.claims.String())
				h.Set("X-Idicn-Signature", "ed25519="+b64(sig))
				h.Set("X-Idicn-Publisher", "ed25519="+b64(p.PublicKey()))
				io.WriteString(w, tc.body)
			}))
			defer evil.Close()

			reg, _ := resolver.NewRegistration(p, "evil", 1, []string{evil.URL})
			if err := registry.Register(context.Background(), reg); err != nil {
				t.Fatal(err)
			}

			px := New(resolver.NewClient(resSrv.URL, resSrv.Client()))
			if _, _, err := px.Get(context.Background(), n); !errors.Is(err, ErrVerification) {
				t.Fatalf("err = %v, want ErrVerification", err)
			}
			if st := px.Stats(); st.Rejected != 1 {
				t.Errorf("stats = %+v, want 1 rejection", st)
			}
			if px.CacheLen() != 0 {
				t.Error("rejected content was cached")
			}
		})
	}
}

func TestProxyFailsOverToMirror(t *testing.T) {
	registry := resolver.NewRegistry()
	resSrv := httptest.NewServer(resolver.NewServer(registry))
	defer resSrv.Close()

	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 44
	p, _ := names.PrincipalFromSeed(seed)
	body := []byte("mirrored")
	sig := p.SignContent("mir", body)
	n, _ := p.Name("mir")

	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("X-Idicn-Name", n.String())
		h.Set("X-Idicn-Signature", "ed25519="+b64(sig))
		h.Set("X-Idicn-Publisher", "ed25519="+b64(p.PublicKey()))
		w.Write(body)
	}))
	defer good.Close()

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	reg, _ := resolver.NewRegistration(p, "mir", 1, []string{dead.URL, good.URL})
	if err := registry.Register(context.Background(), reg); err != nil {
		t.Fatal(err)
	}
	px := New(resolver.NewClient(resSrv.URL, resSrv.Client()))
	obj, fromCache, err := px.Get(context.Background(), n)
	if err != nil {
		t.Fatalf("mirror failover failed: %v", err)
	}
	if fromCache || !bytes.Equal(obj.Body, body) {
		t.Errorf("obj = %+v fromCache=%v", obj, fromCache)
	}
}

func TestPACFile(t *testing.T) {
	s := newStack(t)
	for _, path := range []string{"/wpad.dat", "/proxy.pac"} {
		resp, err := s.proxySrv.Client().Get(s.proxySrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		pac := string(body)
		if !strings.Contains(pac, "FindProxyForURL") {
			t.Errorf("%s: missing FindProxyForURL:\n%s", path, pac)
		}
		if !strings.Contains(pac, "idicn.org") || !strings.Contains(pac, "PROXY ") || !strings.Contains(pac, "DIRECT") {
			t.Errorf("%s: PAC incomplete:\n%s", path, pac)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ns-proxy-autoconfig" {
			t.Errorf("%s: content type %q", path, ct)
		}
	}
}

func TestUnknownNameIs404(t *testing.T) {
	s := newStack(t)
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 45
	other, _ := names.PrincipalFromSeed(seed)
	n, _ := other.Name("ghost")
	resp := s.getName(t, n)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestBadNameHostIs400(t *testing.T) {
	s := newStack(t)
	req, _ := http.NewRequest(http.MethodGet, s.proxySrv.URL+"/", nil)
	req.Host = "not-a-name.idicn.org"
	resp, err := s.proxySrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestLegacyPassThrough(t *testing.T) {
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Legacy", "yes")
		io.WriteString(w, "old web")
	}))
	defer legacy.Close()

	s := newStack(t)
	// Denied by default.
	req, _ := http.NewRequest(http.MethodGet, s.proxySrv.URL+"/", nil)
	req.URL.Path = "/whatever"
	req.Host = "legacy.example"
	resp, err := s.proxySrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("legacy denied status = %d, want 403", resp.StatusCode)
	}

	// Allowed with AllowLegacy: proxy-style absolute URI fetch.
	s.proxy.AllowLegacy = true
	pr, _ := http.NewRequest(http.MethodGet, s.proxySrv.URL, nil)
	pr.URL.Path = "/"
	pr.URL.RawQuery = ""
	pr.Host = strings.TrimPrefix(legacy.URL, "http://")
	resp2, err := s.proxySrv.Client().Do(pr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if string(body) != "old web" || resp2.Header.Get("X-Legacy") != "yes" {
		t.Errorf("legacy fetch = %q hdr=%q", body, resp2.Header.Get("X-Legacy"))
	}
	if st := s.proxy.Stats(); st.LegacyFetches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTTLExpiryRefetches(t *testing.T) {
	s := newStack(t)
	now := time.Unix(1000, 0)
	s.proxy.clock = func() time.Time { return now }
	s.proxy.TTL = time.Minute

	n, err := s.org.Publish(context.Background(), "fresh", "text/plain", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.proxy.Get(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	// Republish new content, advance past the TTL: the proxy must refetch.
	if _, err := s.org.Publish(context.Background(), "fresh", "text/plain", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	obj, fromCache, err := s.proxy.Get(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache || !bytes.Equal(obj.Body, []byte("v2")) {
		t.Errorf("after TTL: fromCache=%v body=%q", fromCache, obj.Body)
	}
}

func b64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }
