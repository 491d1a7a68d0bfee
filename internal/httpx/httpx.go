// Package httpx centralises hardened http.Server construction. Every server
// the repo starts must bound how long a client may dawdle: an unbounded
// ReadTimeout lets a slow-loris connection pin a goroutine (and eventually
// the whole accept loop's file descriptors) forever, which is exactly the
// kind of adverse condition the fault-injection harness exercises.
//
// Server couples the hardened http.Server with its listener and a shutdown
// handle, so the overload layer's graceful drain (stop accepting, finish
// in-flight requests within a bound, exit) has something to hold on to.
//
// ServeBytes is the one response helper here: http.ServeContent for a body
// already in memory, shared by the edge proxy's hit path and the origin.
package httpx

import (
	"bytes"
	"context"
	"mime"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"
)

// Default timeouts. Generous enough for any legitimate request in this
// repo's workloads (loopback experiments and tests), tight enough that a
// stalled client cannot hold a connection open indefinitely.
const (
	ReadHeaderTimeout = 10 * time.Second
	ReadTimeout       = 30 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewServer returns an http.Server for h with the hardened timeouts set.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// Serve is http.Serve with the hardened timeouts applied.
func Serve(lis net.Listener, h http.Handler) error {
	return NewServer(h).Serve(lis)
}

// Server is a running hardened server plus its listener: the handle the
// graceful-drain path needs. Construct with Start.
type Server struct {
	srv *http.Server
	lis net.Listener
}

// Start serves h on lis in a background goroutine with the hardened
// timeouts applied and returns the handle for Shutdown/Close.
func Start(lis net.Listener, h http.Handler) *Server {
	s := &Server{srv: NewServer(h), lis: lis}
	//icn:oneshot accept loop; Serve returns when Shutdown or Close tears down the listener
	go func() {
		// ErrServerClosed (and a closed-listener error during shutdown) is
		// the normal end of serving; anything else surfaced here would race
		// process teardown anyway.
		_ = s.srv.Serve(lis)
	}()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// URL returns the server's http base URL.
func (s *Server) URL() string { return "http://" + s.lis.Addr().String() }

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to ctx's deadline (then returns ctx's error with
// remaining connections still open — callers decide whether to Close).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

// Close abruptly closes the listener and all active connections.
func (s *Server) Close() error { return s.srv.Close() }

// conditionalHeaders are the request headers that make http.ServeContent do
// anything other than send the whole body with status 200.
var conditionalHeaders = [...]string{
	"Range", "If-Range", "If-Match", "If-None-Match", "If-Modified-Since", "If-Unmodified-Since",
}

// ServeBytes replies to the request with an in-memory body, as
// http.ServeContent(w, r, name, modtime, bytes.NewReader(body)) would. A
// plain GET — no Range, no If-* precondition — gets the same status and
// headers (Last-Modified, Content-Type by extension or sniffing unless
// already set, Accept-Ranges, Content-Length) and the body in one Write,
// instead of ServeContent's copy through a 32 KiB staging buffer: on a
// cache hit that copy loop is most of what is left of the cost. Everything
// else (HEAD, ranges, preconditions) is handed to http.ServeContent
// unchanged. body must not be modified until ServeBytes returns.
func ServeBytes(w http.ResponseWriter, r *http.Request, name string, modtime time.Time, body []byte) {
	if !plainGet(r) {
		http.ServeContent(w, r, name, modtime, bytes.NewReader(body))
		return
	}
	h := w.Header()
	if !modtime.IsZero() && !modtime.Equal(time.Unix(0, 0)) {
		h.Set("Last-Modified", modtime.UTC().Format(http.TimeFormat))
	}
	if _, have := h["Content-Type"]; !have {
		ctype := mime.TypeByExtension(filepath.Ext(name))
		if ctype == "" {
			ctype = http.DetectContentType(body) // looks at no more than 512 bytes
		}
		h.Set("Content-Type", ctype)
	}
	h.Set("Accept-Ranges", "bytes")
	if h.Get("Content-Encoding") == "" {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(http.StatusOK)
	// A write error means the client went away; it sees that itself, and
	// ServeContent drops the same error.
	_, _ = w.Write(body)
}

// plainGet reports whether r asks for the whole representation,
// unconditionally.
func plainGet(r *http.Request) bool {
	if r.Method != http.MethodGet {
		return false
	}
	for _, k := range conditionalHeaders {
		if r.Header.Get(k) != "" {
			return false
		}
	}
	return true
}
