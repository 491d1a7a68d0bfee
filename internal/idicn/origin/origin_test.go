package origin

import (
	"context"
	"crypto/ed25519"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idicn/internal/idicn/metalink"
	"idicn/internal/idicn/names"
	"idicn/internal/idicn/resilience"
	"idicn/internal/idicn/resolver"
)

func principal(t testing.TB, b byte) *names.Principal {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = b
	}
	p, err := names.PrincipalFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newStack wires a resolver server and an origin server over httptest.
func newStack(t *testing.T) (*Server, *resolver.Registry, *httptest.Server) {
	t.Helper()
	reg := resolver.NewRegistry()
	resSrv := httptest.NewServer(resolver.NewServer(reg))
	t.Cleanup(resSrv.Close)

	p := principal(t, 9)
	var org *Server
	orgSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		org.ServeHTTP(w, r)
	}))
	t.Cleanup(orgSrv.Close)
	org = New(p, resolver.NewClient(resSrv.URL, resSrv.Client()), orgSrv.URL)
	return org, reg, orgSrv
}

func TestPublishRegistersAndServes(t *testing.T) {
	org, reg, orgSrv := newStack(t)
	ctx := context.Background()
	body := []byte("breaking news: caching works")
	n, err := org.Publish(ctx, "headlines", "text/plain", body)
	if err != nil {
		t.Fatal(err)
	}

	// P2: the name is registered with the correct location.
	res, err := reg.Resolve(context.Background(), n.String())
	if err != nil {
		t.Fatalf("name not registered: %v", err)
	}
	if res.Locations[0] != orgSrv.URL+"/content/headlines" {
		t.Errorf("registered location = %v", res.Locations)
	}

	// Step 4-6: fetching returns the body plus verifiable metadata.
	resp, err := orgSrv.Client().Get(orgSrv.URL + "/content/headlines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if string(got) != string(body) {
		t.Fatalf("body = %q", got)
	}
	v, err := metalink.VerifyResponse(resp.Header, got)
	if err != nil {
		t.Fatalf("response metadata does not verify: %v", err)
	}
	if v.Name != n {
		t.Errorf("verified name %v, want %v", v.Name, n)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain" {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestRepublishBumpsSeq(t *testing.T) {
	org, reg, _ := newStack(t)
	ctx := context.Background()
	if _, err := org.Publish(ctx, "page", "text/html", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	n, err := org.Publish(ctx, "page", "text/html", []byte("v2"))
	if err != nil {
		t.Fatalf("republish: %v", err)
	}
	res, err := reg.Resolve(context.Background(), n.String())
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 {
		t.Errorf("seq = %d, want 2", res.Seq)
	}
	o, ok := org.Object("page")
	if !ok || string(o.Body) != "v2" {
		t.Errorf("object not updated: %+v", o)
	}
}

func TestRangeRequests(t *testing.T) {
	org, _, orgSrv := newStack(t)
	body := []byte("0123456789abcdef")
	if _, err := org.Publish(context.Background(), "blob", "application/octet-stream", body); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, orgSrv.URL+"/content/blob", nil)
	req.Header.Set("Range", "bytes=10-")
	resp, err := orgSrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", resp.StatusCode)
	}
	got, _ := io.ReadAll(resp.Body)
	if string(got) != "abcdef" {
		t.Errorf("range body = %q", got)
	}
}

func TestMetalinkDocument(t *testing.T) {
	org, _, orgSrv := newStack(t)
	if _, err := org.Publish(context.Background(), "file", "text/plain", []byte("data")); err != nil {
		t.Fatal(err)
	}
	resp, err := orgSrv.Client().Get(orgSrv.URL + "/metalink/file")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, _ := io.ReadAll(resp.Body)
	d, err := metalink.Unmarshal(doc)
	if err != nil {
		t.Fatalf("invalid metalink document: %v", err)
	}
	if len(d.Files) != 1 || !strings.HasPrefix(d.Files[0].Name, "file.") {
		t.Errorf("document = %+v", d)
	}
}

func TestFrontCacheShieldsOrigin(t *testing.T) {
	org, _, orgSrv := newStack(t)
	if _, err := org.Publish(context.Background(), "hot", "text/plain", []byte("popular")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resp, err := orgSrv.Client().Get(orgSrv.URL + "/content/hot")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if hits := org.OriginHits(); hits != 1 {
		t.Errorf("origin hits = %d, want 1 (reverse proxy should absorb repeats)", hits)
	}
}

func TestServeErrors(t *testing.T) {
	_, _, orgSrv := newStack(t)
	for path, want := range map[string]int{
		"/content/nope":      404,
		"/content/Bad Label": 400,
		"/unknown":           404,
		"/metalink/nope":     404,
	} {
		resp, err := orgSrv.Client().Get(orgSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestPublishWithoutResolver(t *testing.T) {
	p := principal(t, 10)
	org := New(p, nil, "http://standalone.example", WithMirrors("http://mirror.example/m"), WithClock(func() time.Time {
		return time.Unix(1700000000, 0)
	}))
	n, err := org.Publish(context.Background(), "solo", "text/plain", []byte("x"))
	if err != nil {
		t.Fatalf("publish without resolver: %v", err)
	}
	o, ok := org.Object("solo")
	if !ok {
		t.Fatal("object missing")
	}
	if o.Name != n || !o.Published.Equal(time.Unix(1700000000, 0)) {
		t.Errorf("object = %+v", o)
	}
	if len(o.Meta.URLs) != 2 {
		t.Errorf("mirrors = %+v", o.Meta.URLs)
	}
	if got := org.ContentURL("solo"); got != "http://standalone.example/content/solo" {
		t.Errorf("ContentURL = %q", got)
	}
}

func TestPublishRejectsBadLabel(t *testing.T) {
	p := principal(t, 11)
	org := New(p, nil, "http://x.example")
	if _, err := org.Publish(context.Background(), "Bad Label", "text/plain", []byte("x")); err == nil {
		t.Error("bad label accepted")
	}
}

func TestLabelForFilename(t *testing.T) {
	for in, want := range map[string]string{
		"Report.PDF":        "report-pdf",
		"hello world.txt":   "hello-world-txt",
		"__##__":            "",
		"a":                 "a",
		"--x--":             "x",
		"MiXeD_case-1.html": "mixed-case-1-html",
	} {
		if got := LabelForFilename(in); got != want {
			t.Errorf("LabelForFilename(%q) = %q, want %q", in, got, want)
		}
	}
	long := strings.Repeat("a", 100) + ".txt"
	if got := LabelForFilename(long); len(got) > 63 {
		t.Errorf("long name label %d chars", len(got))
	}
}

func TestPublishDir(t *testing.T) {
	org, reg, orgSrv := newStack(t)
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/Page One.txt", []byte("first page"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/data.bin", []byte{0, 1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir+"/subdir", 0o755); err != nil {
		t.Fatal(err)
	}
	published, err := org.PublishDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(published) != 2 {
		t.Fatalf("published %d files: %v", len(published), published)
	}
	n, ok := published["page-one-txt"]
	if !ok {
		t.Fatalf("missing label page-one-txt in %v", published)
	}
	if _, err := reg.Resolve(context.Background(), n.String()); err != nil {
		t.Errorf("published file not registered: %v", err)
	}
	resp, err := orgSrv.Client().Get(orgSrv.URL + "/content/page-one-txt")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "first page" {
		t.Errorf("served %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("sniffed content type %q", ct)
	}
	if _, err := org.PublishDir(context.Background(), dir+"/missing"); err == nil {
		t.Error("missing dir accepted")
	}
}

// flaky503 fails the first n requests with 503, then delegates to next.
type flaky503 struct {
	mu   sync.Mutex
	left int
	next http.Handler
}

func (f *flaky503) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	fail := f.left > 0
	if fail {
		f.left--
	}
	f.mu.Unlock()
	if fail {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	f.next.ServeHTTP(w, r)
}

func TestPublishRetriesTransientRegistration(t *testing.T) {
	reg := resolver.NewRegistry()
	flaky := &flaky503{left: 2, next: resolver.NewServer(reg)}
	resSrv := httptest.NewServer(flaky)
	defer resSrv.Close()

	org := New(principal(t, 11), resolver.NewClient(resSrv.URL, resSrv.Client()), "http://origin.example",
		WithRegisterPolicy(resilience.Policy{
			MaxAttempts: 3,
			Seed:        1,
			Sleep:       func(context.Context, time.Duration) error { return nil },
		}))
	n, err := org.Publish(context.Background(), "durable", "text/plain", []byte("x"))
	if err != nil {
		t.Fatalf("publish did not survive two transient 503s: %v", err)
	}
	if _, err := reg.Resolve(context.Background(), n.String()); err != nil {
		t.Errorf("name not registered after retries: %v", err)
	}
}

func TestPublishDoesNotRetryPermanentRejection(t *testing.T) {
	// A resolver that rejects every registration as forged: the retry layer
	// must recognise the rejection as permanent and give up after one try.
	var calls atomic.Int64
	resSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad signature", http.StatusForbidden)
	}))
	defer resSrv.Close()

	org := New(principal(t, 12), resolver.NewClient(resSrv.URL, resSrv.Client()), "http://origin.example",
		WithRegisterPolicy(resilience.Policy{
			MaxAttempts: 5,
			Seed:        1,
			Sleep:       func(context.Context, time.Duration) error { return nil },
		}))
	_, err := org.Publish(context.Background(), "rejected", "text/plain", []byte("x"))
	if !errors.Is(err, resolver.ErrBadRegistration) {
		t.Fatalf("err = %v, want ErrBadRegistration", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("resolver saw %d registration attempts, want 1 (no retry on permanent rejection)", got)
	}
}

// TestConcurrentMissesThroughFrontCache is the regression test for the
// front-cache data race: distinct-label misses from several request
// goroutines both read and write the reverse proxy's LRU (and, with a front
// cache smaller than the label set, evict from it), while a republish removes
// entries. Before the cache was guarded by mu this killed the process with
// "concurrent map read and map write"; under -race (make race) it fails on
// the first unsynchronized access.
func TestConcurrentMissesThroughFrontCache(t *testing.T) {
	const labels, workers, rounds = 64, 6, 200
	org := New(principal(t, 11), nil, "http://standalone.example", WithFrontCache(8))
	ctx := context.Background()
	label := func(i int) string { return "obj" + string(rune('a'+i/26)) + string(rune('a'+i%26)) }
	for i := 0; i < labels; i++ {
		if _, err := org.Publish(ctx, label(i), "text/plain", []byte(label(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				l := label((w*rounds + r*7) % labels)
				rec := httptest.NewRecorder()
				org.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/content/"+l, nil))
				if rec.Code != http.StatusOK || rec.Body.String() != l {
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds/4; r++ {
			l := label(r % labels)
			if _, err := org.Publish(ctx, l, "text/plain", []byte(l)); err != nil {
				bad.Add(1)
			}
		}
	}()
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent requests failed or returned the wrong body", n, workers*rounds)
	}
	if hits := org.OriginHits(); hits < labels {
		t.Errorf("origin hits = %d, want at least one per label (%d): the front cache is smaller than the label set", hits, labels)
	}
}
