package proxy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"idicn/internal/idicn/metalink"
	"idicn/internal/idicn/names"
)

// cachedObject publishes size bytes under label on a fresh stack (fixed
// principal seed, so names, keys and signatures repeat) and pulls them
// through the proxy once, leaving a fresh cache entry.
func cachedObject(t testing.TB, label string, size int) (*stack, names.Name, []byte) {
	t.Helper()
	s := newStack(t)
	body := bytes.Repeat([]byte("0123456789abcdef"), size/16)
	n, err := s.org.Publish(context.Background(), label, "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	if _, fromCache, err := s.proxy.Get(context.Background(), n); err != nil || fromCache {
		t.Fatalf("warming the cache: fromCache=%v err=%v", fromCache, err)
	}
	return s, n, body
}

// TestHitHeadersMatchBuildFile pins what a hit sends against the per-hit
// computation it replaced: the idICN headers of a cached entry are exactly
// SetHeaders(BuildFile(…)) over the same inputs.
func TestHitHeadersMatchBuildFile(t *testing.T) {
	s, n, body := cachedObject(t, "pinned", 4<<10)
	o, ok := s.org.Object("pinned")
	if !ok {
		t.Fatal("origin lost the object")
	}
	// Mirrors: the origin advertises its own content URL, which the proxy
	// parsed back out of the Link header.
	var mirrors []string
	for _, u := range o.Meta.URLs {
		mirrors = append(mirrors, u.Location)
	}
	want := make(http.Header)
	metalink.SetHeaders(want, metalink.BuildFile(n, s.org.Principal().PublicKey(), body, o.Signature, mirrors))

	resp := s.getName(t, n)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache = %q, want HIT", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got, body) {
		t.Fatal("hit body differs from the published bytes")
	}
	for k, v := range want {
		if !reflect.DeepEqual(resp.Header[k], v) {
			t.Errorf("%s = %q, want %q", k, resp.Header[k], v)
		}
	}
	for k, v := range map[string]string{
		"Content-Type":   "application/octet-stream",
		"Content-Length": strconv.Itoa(len(body)),
		"Accept-Ranges":  "bytes",
	} {
		if resp.Header.Get(k) != v {
			t.Errorf("%s = %q, want %q", k, resp.Header.Get(k), v)
		}
	}
	if resp.Header.Get("Last-Modified") == "" {
		t.Error("hit carries no Last-Modified")
	}

	obj, fromCache, err := s.proxy.Get(context.Background(), n)
	if err != nil || !fromCache {
		t.Fatalf("Get: fromCache=%v err=%v", fromCache, err)
	}
	if obj.Meta.Digest != sha256.Sum256(body) {
		t.Error("stored digest is not the body's SHA-256")
	}
}

// TestRangeOnCachedObject: a ranged read of a cache entry (the mobility
// layer resumes this way) returns the slice, while Digest stays the
// full-instance digest a client needs to verify the reassembled object.
func TestRangeOnCachedObject(t *testing.T) {
	s, n, body := cachedObject(t, "ranged", 4<<10)
	req, err := http.NewRequest(http.MethodGet, s.proxySrv.URL+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Host = n.DNS()
	req.Header.Set("Range", "bytes=100-1123")
	resp, err := s.proxySrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", resp.StatusCode)
	}
	if !bytes.Equal(got, body[100:1124]) {
		t.Errorf("range body = %d bytes, not body[100:1124]", len(got))
	}
	if cr, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes 100-1123/%d", len(body)); cr != want {
		t.Errorf("Content-Range = %q, want %q", cr, want)
	}
	full := sha256.Sum256(body)
	if d, want := resp.Header.Get("Digest"), "SHA-256="+base64.StdEncoding.EncodeToString(full[:]); d != want {
		t.Errorf("Digest = %q, want the full-instance %q", d, want)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
		t.Errorf("X-Cache = %q, want HIT", xc)
	}
}

// hitLoop returns a function that serves one cache hit for n straight
// through ServeHTTP into a reused recorder whose body buffer is already
// large enough, so that what the function allocates is what a hit
// allocates.
func hitLoop(t testing.TB, px *Proxy, n names.Name, size int) func() {
	req := httptest.NewRequest(http.MethodGet, "http://"+n.DNS()+"/", nil)
	rec := httptest.NewRecorder()
	rec.Body.Grow(size)
	hdr, buf := rec.Header(), rec.Body
	return func() {
		clear(hdr)
		buf.Reset()
		*rec = httptest.ResponseRecorder{HeaderMap: hdr, Body: buf, Code: http.StatusOK}
		px.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || buf.Len() != size || hdr.Get("X-Cache") != "HIT" {
			t.Fatalf("hit: status %d, %d bytes, X-Cache %q", rec.Code, buf.Len(), hdr.Get("X-Cache"))
		}
	}
}

// TestHitDoesNotTouchBody is the gate on "verify once, serve many": serving
// a 256 KiB cache hit allocates headers and bookkeeping, never anything the
// size of the body. One string(body) copy is 256 KiB, sixteen times the
// limit.
func TestHitDoesNotTouchBody(t *testing.T) {
	const size, limit = 256 << 10, 16 << 10
	s, n, _ := cachedObject(t, "large", size)
	hit := hitLoop(t, s.proxy, n, size)
	hit() // first use sizes the header map and loads the mime table

	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, hit)
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls hit once to warm up and then runs times.
	perHit := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%d B and %.0f allocations per %d KiB hit", perHit, allocs, size>>10)
	if perHit > limit {
		t.Errorf("a %d KiB hit allocates %d B, limit %d B: the hit path copies or stages the body", size>>10, perHit, limit)
	}
}

// BenchmarkProxyServeHit measures the proxy's whole hit path (name parse,
// cache lookup, header rendering, body write) without sockets.
func BenchmarkProxyServeHit(b *testing.B) {
	for _, size := range []int{1 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			s, n, _ := cachedObject(b, "bench", size)
			hit := hitLoop(b, s.proxy, n, size)
			hit()
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
		})
	}
}
