// Package origin implements the content-provider side of idICN (paper §6,
// Figure 11): the origin server and its reverse proxy. Publishing content
// (step P1) signs it under the provider's principal, stores it, attaches
// Metalink metadata to every response (step 6), and registers the name with
// the resolution system (step P2). The reverse proxy front also caches
// origin responses so repeated fetches skip the origin (step 5 elided).
package origin

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"idicn/internal/cache"
	"idicn/internal/httpx"
	"idicn/internal/idicn/metalink"
	"idicn/internal/idicn/names"
	"idicn/internal/idicn/resilience"
	"idicn/internal/idicn/resolver"
)

// Object is a published content item.
type Object struct {
	Name        names.Name
	ContentType string
	Body        []byte
	Signature   []byte
	Meta        metalink.File
	Published   time.Time
	Seq         uint64
}

// Server is an origin plus reverse proxy for one publisher principal. It is
// safe for concurrent use.
type Server struct {
	principal *names.Principal
	resolver  *resolver.Client
	baseURL   string   // location advertised for this server
	mirrors   []string // additional advertised replica locations

	mu      sync.RWMutex
	objects map[string]*Object // by label
	seq     map[string]uint64  // per-label registration sequence

	// originHits counts requests that had to touch the origin store (as
	// opposed to the reverse proxy's front cache).
	originHits int64
	// front is the reverse proxy's cache. cache.LRU is not synchronized and
	// even Get reorders it, so every use holds mu exclusively.
	//icn:guardedby mu
	front        *cache.LRU[string, *Object]
	frontEntries int // front's capacity; New builds it once options have run
	clock        func() time.Time

	// registerRetry governs retries of resolver registrations during
	// Publish. The zero value retries transient failures a few times with
	// backoff; verification and stale-sequence rejections never retry.
	registerRetry resilience.Policy
}

// Option configures a Server.
type Option func(*Server)

// WithMirrors advertises extra replica locations in published metadata.
func WithMirrors(urls ...string) Option {
	return func(s *Server) { s.mirrors = append(s.mirrors, urls...) }
}

// WithFrontCache bounds the reverse proxy's front cache (default 1024
// objects).
func WithFrontCache(entries int) Option {
	return func(s *Server) { s.frontEntries = entries }
}

// WithClock overrides time.Now, for tests.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.clock = now }
}

// WithRegisterPolicy overrides the retry schedule used when registering
// published names with the resolver.
func WithRegisterPolicy(p resilience.Policy) Option {
	return func(s *Server) { s.registerRetry = p }
}

// New creates an origin server. resolverClient may be nil, in which case
// names are not registered (useful for ad hoc setups); baseURL is the URL
// under which this server is reachable, advertised in registrations and
// metadata.
func New(p *names.Principal, resolverClient *resolver.Client, baseURL string, opts ...Option) *Server {
	s := &Server{
		principal: p,
		resolver:  resolverClient,
		baseURL:   strings.TrimRight(baseURL, "/"),
		objects:   make(map[string]*Object),
		seq:       make(map[string]uint64),
		clock:     time.Now,
	}
	s.frontEntries = 1024
	for _, o := range opts {
		o(s)
	}
	s.front = cache.NewLRU[string, *Object](s.frontEntries, nil)
	return s
}

// Principal returns the publisher identity.
func (s *Server) Principal() *names.Principal { return s.principal }

// BaseURL returns the advertised location.
func (s *Server) BaseURL() string { return s.baseURL }

// ContentURL returns the fetch URL for a label on this server.
func (s *Server) ContentURL(label string) string {
	return s.baseURL + "/content/" + label
}

// Publish signs and stores content under label and registers the name
// (steps P1 and P2). Republishing a label bumps the registration sequence
// so resolvers accept the update.
func (s *Server) Publish(ctx context.Context, label, contentType string, body []byte) (names.Name, error) {
	n, err := s.principal.Name(label)
	if err != nil {
		return names.Name{}, err
	}
	sig := s.principal.SignContent(label, body)
	mirrors := append([]string{s.ContentURL(label)}, s.mirrors...)
	obj := &Object{
		Name:        n,
		ContentType: contentType,
		Body:        append([]byte(nil), body...),
		Signature:   sig,
		Meta:        metalink.BuildFile(n, s.principal.PublicKey(), body, sig, mirrors),
		Published:   s.clock(),
	}

	s.mu.Lock()
	s.seq[label]++
	obj.Seq = s.seq[label]
	s.objects[label] = obj
	s.front.Remove(label)
	s.mu.Unlock()

	if s.resolver != nil {
		reg, err := resolver.NewRegistration(s.principal, label, obj.Seq, mirrors)
		if err != nil {
			return names.Name{}, err
		}
		err = s.registerRetry.Do(ctx, func(ctx context.Context) error {
			err := s.resolver.Register(ctx, reg)
			if errors.Is(err, resolver.ErrBadRegistration) || errors.Is(err, resolver.ErrStaleSeq) {
				return resilience.Permanent(err) // more tries cannot fix these
			}
			return err
		})
		if err != nil {
			return names.Name{}, fmt.Errorf("origin: registering %s: %w", n, err)
		}
	}
	return n, nil
}

// Object returns the published object for a label.
func (s *Server) Object(label string) (*Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[label]
	return o, ok
}

// Labels returns all published labels (unordered).
func (s *Server) Labels() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.objects))
	for l := range s.objects {
		out = append(out, l)
	}
	return out
}

// OriginHits reports how many requests reached the origin store rather than
// the reverse proxy's front cache.
func (s *Server) OriginHits() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.originHits
}

// ServeHTTP serves:
//
//	GET /content/<label>          the content, with idICN metadata headers
//	GET /metalink/<label>         the Metalink XML description
//	GET /labels                   newline-separated published labels
//
// Range requests are honored (httpx.ServeBytes hands them to
// http.ServeContent), which the mobility layer relies on for resumption.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, "/content/"):
		s.serveContent(w, r, strings.TrimPrefix(r.URL.Path, "/content/"))
	case strings.HasPrefix(r.URL.Path, "/metalink/"):
		s.serveMetalink(w, r, strings.TrimPrefix(r.URL.Path, "/metalink/"))
	case r.URL.Path == "/labels":
		for _, l := range s.Labels() {
			fmt.Fprintln(w, l)
		}
	default:
		http.NotFound(w, r)
	}
}

// lookup goes through the reverse proxy's front cache before the origin
// store, mirroring Figure 11's step-5 short circuit.
func (s *Server) lookup(label string) (*Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.front.Get(label); ok {
		return o, true
	}
	o, ok := s.objects[label]
	if !ok {
		return nil, false
	}
	s.originHits++
	s.front.Put(label, o)
	return o, true
}

func (s *Server) serveContent(w http.ResponseWriter, r *http.Request, label string) {
	if !names.ValidLabel(label) {
		http.Error(w, "invalid label", http.StatusBadRequest)
		return
	}
	o, ok := s.lookup(label)
	if !ok {
		http.NotFound(w, r)
		return
	}
	metalink.SetHeaders(w.Header(), o.Meta)
	if o.ContentType != "" {
		w.Header().Set("Content-Type", o.ContentType)
	}
	httpx.ServeBytes(w, r, label, o.Published, o.Body)
}

func (s *Server) serveMetalink(w http.ResponseWriter, r *http.Request, label string) {
	o, ok := s.lookup(label)
	if !ok {
		http.NotFound(w, r)
		return
	}
	doc, err := metalink.Marshal(o.Meta)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/metalink4+xml")
	_, _ = w.Write(doc) // client disconnects surface on its side
}

// PublishDir publishes every regular file under dir (non-recursively),
// deriving each label from the file name (lowercased; unsupported
// characters become hyphens) and the content type by sniffing. It returns
// the published names keyed by label.
func (s *Server) PublishDir(ctx context.Context, dir string) (map[string]names.Name, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("origin: %w", err)
	}
	out := make(map[string]names.Name)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		label := LabelForFilename(e.Name())
		if label == "" {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("origin: reading %s: %w", e.Name(), err)
		}
		n, err := s.Publish(ctx, label, http.DetectContentType(body), body)
		if err != nil {
			return nil, fmt.Errorf("origin: publishing %s: %w", e.Name(), err)
		}
		out[label] = n
	}
	return out, nil
}

// LabelForFilename converts a file name into a valid idICN label:
// lowercase, with runs of unsupported characters collapsed to single
// hyphens and length clamped to the DNS label limit. It returns "" for
// names with no usable characters.
func LabelForFilename(name string) string {
	var b strings.Builder
	lastHyphen := true // suppress leading hyphen
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastHyphen = false
		default:
			if !lastHyphen {
				b.WriteByte('-')
				lastHyphen = true
			}
		}
	}
	label := strings.TrimRight(b.String(), "-")
	if len(label) > 63 {
		label = strings.TrimRight(label[:63], "-")
	}
	if !names.ValidLabel(label) {
		return ""
	}
	return label
}
