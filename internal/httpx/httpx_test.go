package httpx

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestNewServerSetsTimeouts(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts not set: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
}

// TestServeClosesSlowLoris: a connection that never finishes its headers is
// cut off by the server rather than held open forever.
func TestServeClosesSlowLoris(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv := NewServer(http.NotFoundHandler())
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	srv.ReadTimeout = 50 * time.Millisecond
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err) // headers deliberately unterminated
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("waiting for server to drop the connection: %v", err)
	}
	// ReadAll returning nil means the server closed the half-open request.
}

// TestServeBytesMatchesServeContent is the differential test for
// ServeBytes: over one recorder each, it and http.ServeContent must produce
// the same status, header map and body — on the single-write path (plain
// GET) and on every request shape it hands on.
func TestServeBytesMatchesServeContent(t *testing.T) {
	modtime := time.Date(2013, 8, 12, 9, 30, 0, 0, time.UTC)
	text := []byte("less pain, most of the gain: incrementally deployable ICN")
	png := append([]byte("\x89PNG\r\n\x1a\n"), bytes.Repeat([]byte{0xff, 0x00}, 600)...)
	preset := func(k, v string) func(http.Header) { return func(h http.Header) { h.Set(k, v) } }

	for _, tc := range []struct {
		name    string
		method  string
		file    string
		modtime time.Time
		body    []byte
		reqHdr  [][2]string
		preset  func(http.Header) // response headers the caller set first
		status  int
	}{
		{name: "plain GET", method: "GET", file: "story", modtime: modtime, body: text, preset: preset("Content-Type", "text/plain"), status: 200},
		{name: "plain GET keeps caller headers", method: "GET", file: "story", modtime: modtime, body: text, preset: preset("X-Cache", "HIT"), status: 200},
		{name: "empty Content-Type, sniffed text", method: "GET", file: "story", modtime: modtime, body: text, status: 200},
		{name: "empty Content-Type, sniffed binary past 512 bytes", method: "GET", file: "story", modtime: modtime, body: png, status: 200},
		{name: "empty Content-Type, by extension", method: "GET", file: "page.html", modtime: modtime, body: text, status: 200},
		{name: "Content-Type explicitly suppressed", method: "GET", file: "story", modtime: modtime, body: text, preset: func(h http.Header) { h["Content-Type"] = nil }, status: 200},
		{name: "Content-Encoding set by caller", method: "GET", file: "story", modtime: modtime, body: text, preset: preset("Content-Encoding", "gzip"), status: 200},
		{name: "zero modtime", method: "GET", file: "story", body: text, status: 200},
		{name: "empty body", method: "GET", file: "story", modtime: modtime, body: nil, status: 200},
		{name: "Range", method: "GET", file: "story", modtime: modtime, body: text, reqHdr: [][2]string{{"Range", "bytes=4-"}}, status: 206},
		{name: "Range past the end", method: "GET", file: "story", modtime: modtime, body: text, reqHdr: [][2]string{{"Range", "bytes=4000-"}}, status: 416},
		{name: "If-Modified-Since", method: "GET", file: "story", modtime: modtime, body: text, reqHdr: [][2]string{{"If-Modified-Since", modtime.Format(http.TimeFormat)}}, status: 304},
		{name: "If-Unmodified-Since", method: "GET", file: "story", modtime: modtime, body: text, reqHdr: [][2]string{{"If-Unmodified-Since", modtime.Add(-time.Hour).Format(http.TimeFormat)}}, status: 412},
		{name: "If-None-Match", method: "GET", file: "story", modtime: modtime, body: text, reqHdr: [][2]string{{"If-None-Match", "*"}}, status: 304},
		{name: "HEAD", method: "HEAD", file: "story", modtime: modtime, body: text, status: 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(f func(http.ResponseWriter, *http.Request)) *httptest.ResponseRecorder {
				r := httptest.NewRequest(tc.method, "/", nil)
				for _, kv := range tc.reqHdr {
					r.Header.Set(kv[0], kv[1])
				}
				rec := httptest.NewRecorder()
				if tc.preset != nil {
					tc.preset(rec.Header())
				}
				f(rec, r)
				return rec
			}
			got := serve(func(w http.ResponseWriter, r *http.Request) {
				ServeBytes(w, r, tc.file, tc.modtime, tc.body)
			})
			want := serve(func(w http.ResponseWriter, r *http.Request) {
				http.ServeContent(w, r, tc.file, tc.modtime, bytes.NewReader(tc.body))
			})
			if want.Code != tc.status {
				t.Fatalf("http.ServeContent status = %d; the case expects %d", want.Code, tc.status)
			}
			if got.Code != want.Code {
				t.Errorf("status = %d, want %d", got.Code, want.Code)
			}
			if !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Errorf("headers differ:\n got %v\nwant %v", got.Header(), want.Header())
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("body = %q, want %q", got.Body.Bytes(), want.Body.Bytes())
			}
		})
	}
}

// TestServeBytesOverTheWire compares the two as a client sees them through
// a real server, where net/http adds its own headers (Date) and framing.
func TestServeBytesOverTheWire(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 16<<10) // 256 KiB: well past every buffer on the path
	modtime := time.Date(2013, 8, 12, 9, 30, 0, 0, time.UTC)
	mux := http.NewServeMux()
	mux.HandleFunc("/bytes", func(w http.ResponseWriter, r *http.Request) {
		ServeBytes(w, r, "blob", modtime, body)
	})
	mux.HandleFunc("/content", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "blob", modtime, bytes.NewReader(body))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	fetch := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Header.Del("Date")
		return resp, b
	}
	got, gotBody := fetch("/bytes")
	want, wantBody := fetch("/content")
	if got.StatusCode != want.StatusCode || got.ContentLength != want.ContentLength ||
		!reflect.DeepEqual(got.TransferEncoding, want.TransferEncoding) {
		t.Errorf("status/length/encoding = %d/%d/%v, want %d/%d/%v", got.StatusCode, got.ContentLength,
			got.TransferEncoding, want.StatusCode, want.ContentLength, want.TransferEncoding)
	}
	if !reflect.DeepEqual(got.Header, want.Header) {
		t.Errorf("headers differ:\n got %v\nwant %v", got.Header, want.Header)
	}
	if !bytes.Equal(gotBody, wantBody) || !bytes.Equal(gotBody, body) {
		t.Errorf("body differs: %d bytes, want %d", len(gotBody), len(body))
	}
}
