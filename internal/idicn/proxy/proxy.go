// Package proxy implements the idICN edge proxy cache (paper §6, Figure 11,
// steps 1, 2, 3, 4, and 7): the cache near the client's access gateway that
// clients are pointed at via WPAD/PAC auto-configuration.
//
// The proxy serves named content from its LRU cache when fresh (step 7),
// otherwise resolves the name (step 3), fetches from the origin's reverse
// proxy or a mirror (step 4), authenticates the content against its
// self-certifying name before caching or serving it, and falls through to
// plain HTTP for legacy hosts so deployment never breaks non-idICN traffic.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idicn/internal/cache"
	"idicn/internal/httpx"
	"idicn/internal/idicn/metalink"
	"idicn/internal/idicn/names"
	"idicn/internal/idicn/resilience"
	"idicn/internal/idicn/resolver"
	"idicn/internal/overload"
)

// Resolver is the proxy's view of the resolution system. *resolver.Client,
// *resolver.MultiClient, and *resolver.HedgedClient all satisfy it.
type Resolver interface {
	Resolve(ctx context.Context, name string) (resolver.Result, error)
}

// CachedObject is a verified content object held by the proxy, ready to
// send: everything derived from the body was computed once, when the object
// was verified on its way in (see accept), and a hit only reads it.
//
// An entry is immutable after insert. Body, Meta and File are shared,
// without copying, by every concurrent response that serves the entry and
// by every caller of Get; none of them may write through these fields.
type CachedObject struct {
	Name        names.Name
	ContentType string
	Body        []byte
	// Meta is the identity VerifyResponse checked Body against, including
	// the body's SHA-256.
	Meta metalink.Verified
	// File is the metadata SetHeaders renders on every response for this
	// object, built from Meta at insert.
	File    metalink.File
	Fetched time.Time
}

// Stats counts proxy outcomes.
type Stats struct {
	Hits          int64 // served from cache
	Misses        int64 // fetched from origin/mirror
	Rejected      int64 // fetched but failed verification
	LegacyFetches int64 // passed through to non-idICN hosts
	StaleServes   int64 // served expired cache entries during resolver outages
	Fallbacks     int64 // served via remembered origin locations, bypassing the resolver
}

// Proxy is the edge proxy. It is safe for concurrent use.
type Proxy struct {
	resolver Resolver
	client   *http.Client

	mu sync.Mutex
	//icn:guardedby mu
	cache *cache.LRU[string, *CachedObject]
	// Degradation memory: the last successfully resolved content locations
	// per name, and per-publisher origin base URLs derived from them. When
	// the resolver is unreachable these let the proxy go straight to the
	// authority implied by the self-certifying name — the content is still
	// verified against the name, so no trust is lost.
	//icn:guardedby mu
	lastLocs map[string][]string
	//icn:guardedby mu
	pubBase map[string]string // key: P (keyhash string)

	// AllowLegacy enables pass-through fetching for non-idICN hosts.
	AllowLegacy bool
	// TTL bounds cache freshness; zero means objects never expire (content
	// is immutable under self-certifying names, so this is safe; a TTL
	// merely bounds staleness after republication).
	TTL time.Duration
	// ResolvePolicy retries transient resolution failures (per-attempt
	// timeouts, capped backoff). The zero value means 3 attempts with 10ms
	// base delay; resolver "not found" answers are never retried.
	ResolvePolicy resilience.Policy
	// Breaker trips after consecutive resolver failures so a dead resolver
	// is skipped (straight to degraded serving) instead of timing out every
	// request. Zero value: threshold 5, cooldown 1s.
	Breaker resilience.Breaker
	// Brownout reports the stack's current degradation tier (nil means
	// TierNormal). At TierStale and above, expired cache entries are served
	// without revalidating; at TierNoHedge and above, resolution gets a
	// single attempt — under overload the duplicate requests that retries
	// and hedges issue are amplification, not resilience.
	Brownout func() overload.Tier
	// AttemptBudget caps the upstream resolution attempts one request may
	// spend across retry and hedging layers; <= 0 means 4.
	AttemptBudget int

	peers   []string // sibling proxies for scoped cooperative lookup
	flights flightGroup

	hits, misses, rejected, legacy   atomic.Int64
	peerHits, peerProbes, peerServed atomic.Int64
	staleServes, fallbacks           atomic.Int64
	resolveErrors, breakerSkips      atomic.Int64
	clock                            func() time.Time
}

// Option configures a Proxy.
type Option func(*Proxy)

// WithCacheEntries bounds the content cache (default 4096 objects).
func WithCacheEntries(n int) Option {
	//icnvet:ignore guardedby — options run inside New, before the Proxy is published
	return func(p *Proxy) { p.cache = cache.NewLRU[string, *CachedObject](n, nil) }
}

// WithHTTPClient overrides the upstream HTTP client.
func WithHTTPClient(hc *http.Client) Option {
	return func(p *Proxy) { p.client = hc }
}

// WithClock overrides time.Now, for tests.
func WithClock(now func() time.Time) Option {
	return func(p *Proxy) { p.clock = now }
}

// New creates an edge proxy using the given resolver.
func New(res Resolver, opts ...Option) *Proxy {
	p := &Proxy{
		resolver: res,
		client:   &http.Client{Timeout: 10 * time.Second},
		cache:    cache.NewLRU[string, *CachedObject](4096, nil),
		lastLocs: make(map[string][]string),
		pubBase:  make(map[string]string),
		clock:    time.Now,
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Rejected:      p.rejected.Load(),
		LegacyFetches: p.legacy.Load(),
		StaleServes:   p.staleServes.Load(),
		Fallbacks:     p.fallbacks.Load(),
	}
}

// ErrVerification is returned when fetched content fails self-certification.
var ErrVerification = errors.New("proxy: content failed verification")

// ServeHTTP handles:
//
//	GET /wpad.dat and /proxy.pac     the PAC file (step 1)
//	any request whose Host (or absolute-form URL) is under idicn.org:
//	    served by name (steps 2-7)
//	other hosts: transparent pass-through when AllowLegacy is set
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/wpad.dat" || r.URL.Path == "/proxy.pac" {
		p.servePAC(w, r)
		return
	}
	host := r.Host
	if r.URL.Host != "" { // absolute-form request line (proxy-style)
		host = r.URL.Host
	}
	if h, _, ok := strings.Cut(host, ":"); ok {
		host = h
	}
	if strings.HasSuffix(strings.ToLower(host), names.Domain) {
		p.serveName(w, r, host)
		return
	}
	if p.AllowLegacy {
		p.serveLegacy(w, r)
		return
	}
	http.Error(w, "proxy: refusing non-idICN host "+host, http.StatusForbidden)
}

// servePAC returns the Proxy Auto-Config file (step 1). Clients discover
// its URL via WPAD (DHCP option 252 or the wpad.<domain> convention) and
// route *.idicn.org through this proxy, everything else direct.
func (p *Proxy) servePAC(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ns-proxy-autoconfig")
	fmt.Fprintf(w, `function FindProxyForURL(url, host) {
  if (dnsDomainIs(host, ".%s") || host == "%s")
    return "PROXY %s";
  return "DIRECT";
}
`, names.Domain, names.Domain, r.Host)
}

func (p *Proxy) serveName(w http.ResponseWriter, r *http.Request, host string) {
	n, err := names.Parse(host)
	if err != nil {
		http.Error(w, "proxy: bad idICN name: "+err.Error(), http.StatusBadRequest)
		return
	}
	if r.Header.Get(coopHeader) != "" {
		// A sibling's scoped lookup: answer from cache only, never recurse.
		p.serveCoopLookup(w, n)
		return
	}
	obj, src, err := p.get(r.Context(), n)
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, resolver.ErrNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	obj.setHeaders(w.Header())
	switch src {
	case srcHit:
		w.Header().Set("X-Cache", "HIT")
	case srcStale:
		w.Header().Set("X-Cache", "STALE")
	case srcFallback:
		w.Header().Set("X-Cache", "FALLBACK")
	default:
		w.Header().Set("X-Cache", "MISS")
	}
	httpx.ServeBytes(w, r, obj.Name.Label, obj.Fetched, obj.Body)
}

// setHeaders writes the object's stored metadata and content type into a
// response header.
func (o *CachedObject) setHeaders(h http.Header) {
	metalink.SetHeaders(h, o.File)
	if o.ContentType != "" {
		h.Set("Content-Type", o.ContentType)
	}
}

// source says how an object was obtained, for X-Cache headers and metrics.
type source int

const (
	srcMiss     source = iota // resolved and fetched upstream
	srcHit                    // fresh cache entry
	srcPeer                   // sibling proxy's cache
	srcStale                  // expired cache entry, served during an outage
	srcFallback               // fetched via remembered locations, resolver down
)

// ErrResolverDown is wrapped into errors returned when the resolution system
// is unreachable (or the circuit breaker is open) and no degraded path could
// serve the object.
var ErrResolverDown = errors.New("proxy: resolver unavailable")

// Get returns the verified object for a name, from cache when fresh
// (fromCache true), otherwise via resolution and fetch. All content is
// authenticated against the name before being cached or returned,
// implementing the paper's "the proxy authenticates the content using
// enclosed digital signatures" (step 7). When the resolver is unreachable
// the proxy degrades instead of failing: expired cache entries are served
// stale, then remembered origin locations are tried directly.
func (p *Proxy) Get(ctx context.Context, n names.Name) (*CachedObject, bool, error) {
	obj, src, err := p.get(ctx, n)
	return obj, src == srcHit, err
}

// tier returns the current brownout tier (TierNormal without a hook).
func (p *Proxy) tier() overload.Tier {
	if p.Brownout == nil {
		return overload.TierNormal
	}
	return p.Brownout()
}

// attemptBudget is the per-request upstream attempt cap.
func (p *Proxy) attemptBudget() int {
	if p.AttemptBudget > 0 {
		return p.AttemptBudget
	}
	return 4
}

func (p *Proxy) get(ctx context.Context, n names.Name) (*CachedObject, source, error) {
	key := n.String()
	tier := p.tier()
	p.mu.Lock()
	stale, ok := p.cache.Get(key)
	p.mu.Unlock()
	if ok && (p.TTL == 0 || p.clock().Sub(stale.Fetched) < p.TTL) {
		p.hits.Add(1)
		return stale, srcHit, nil
	}
	if !ok {
		stale = nil
	}
	// Brownout serve-stale: under pressure an expired entry beats the cost
	// of revalidating it. Content is immutable under self-certifying names,
	// so staleness only means "republished since" — never "wrong".
	if stale != nil && tier >= overload.TierStale {
		p.staleServes.Add(1)
		return stale, srcStale, nil
	}

	// One attempt budget per request, shared by every retry and hedging
	// layer below. Under no-hedge brownout the budget is 1: a single
	// resolution attempt, no amplification.
	if resilience.BudgetFrom(ctx) == nil {
		budget := p.attemptBudget()
		if tier >= overload.TierNoHedge {
			budget = 1
		}
		ctx = resilience.WithBudget(ctx, resilience.NewBudget(budget))
	}

	// Scoped cooperation before the resolution system: ask sibling proxies
	// for a cached copy (the application-layer EDGE-Coop).
	if len(p.peers) > 0 {
		if obj := p.lookupPeers(ctx, n); obj != nil {
			p.mu.Lock()
			p.cache.Put(key, obj)
			p.mu.Unlock()
			return obj, srcPeer, nil
		}
	}

	res, err := p.resolve(ctx, key)
	if err != nil {
		if errors.Is(err, resolver.ErrNotFound) {
			return nil, srcMiss, err // authoritative: the name does not exist
		}
		return p.degrade(ctx, n, key, stale, err)
	}
	p.remember(n, key, res.Locations)
	obj, err := p.fetchAny(ctx, n, key, res.Locations)
	if err != nil {
		return nil, srcMiss, err
	}
	p.misses.Add(1)
	return obj, srcMiss, nil
}

// resolve wraps the resolver call with the retry policy and circuit
// breaker. "Not found" is an authoritative healthy answer: it is never
// retried and it resets the breaker.
func (p *Proxy) resolve(ctx context.Context, key string) (resolver.Result, error) {
	if !p.Breaker.Allow() {
		p.breakerSkips.Add(1)
		return resolver.Result{}, fmt.Errorf("%w: circuit open", ErrResolverDown)
	}
	pol := p.ResolvePolicy
	if p.tier() >= overload.TierNoHedge {
		pol.MaxAttempts = 1
	}
	var res resolver.Result
	err := pol.Do(ctx, func(ctx context.Context) error {
		var err error
		res, err = p.resolver.Resolve(ctx, key)
		if errors.Is(err, resolver.ErrNotFound) {
			return resilience.Permanent(err)
		}
		return err
	})
	if err == nil || errors.Is(err, resolver.ErrNotFound) {
		p.Breaker.Record(nil)
	} else {
		p.resolveErrors.Add(1)
		p.Breaker.Record(err)
	}
	return res, err
}

// remember records the resolved locations (and the publisher origin base
// derived from them) so future requests can survive a resolver outage.
func (p *Proxy) remember(n names.Name, key string, locations []string) {
	locs := append([]string(nil), locations...)
	p.mu.Lock()
	p.lastLocs[key] = locs
	for _, loc := range locs {
		// Origin content URLs end in "/content/<label>"; the prefix is the
		// publisher's serving base, valid for all of its labels.
		if i := strings.LastIndex(loc, "/content/"); i > 0 {
			p.pubBase[n.Key.String()] = loc[:i]
			break
		}
	}
	p.mu.Unlock()
}

// degrade is the resolver-outage path: serve the expired cache entry if one
// exists, else go directly to remembered locations for this name or to the
// publisher's origin base. Content fetched this way is still verified
// against the self-certifying name, so degradation never weakens
// authenticity.
func (p *Proxy) degrade(ctx context.Context, n names.Name, key string, stale *CachedObject, cause error) (*CachedObject, source, error) {
	if stale != nil {
		p.staleServes.Add(1)
		return stale, srcStale, nil
	}
	p.mu.Lock()
	locs := append([]string(nil), p.lastLocs[key]...)
	if base, ok := p.pubBase[n.Key.String()]; ok {
		locs = append(locs, base+"/content/"+n.Label)
	}
	p.mu.Unlock()
	// A dead request gets no fallback fetch: the client shed or canceled it
	// upstream, so any upstream work now is orphaned.
	if len(locs) > 0 && ctx.Err() == nil {
		if obj, err := p.fetchAny(ctx, n, key, locs); err == nil {
			p.fallbacks.Add(1)
			return obj, srcFallback, nil
		}
	}
	return nil, srcMiss, fmt.Errorf("%w: %v", ErrResolverDown, cause)
}

// fetchAny tries each location in order, caching and returning the first
// verified object.
func (p *Proxy) fetchAny(ctx context.Context, n names.Name, key string, locations []string) (*CachedObject, error) {
	var lastErr error
	for _, loc := range locations {
		// Between locations, re-check the request: once the client is gone
		// (shed, canceled, deadline past) trying further mirrors only
		// creates upstream work nobody will read.
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		obj, err := p.fetchVerified(ctx, n, loc)
		if err != nil {
			lastErr = err
			continue
		}
		p.mu.Lock()
		p.cache.Put(key, obj)
		p.mu.Unlock()
		return obj, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("proxy: no locations for %s", key)
	}
	return nil, lastErr
}

func (p *Proxy) fetchVerified(ctx context.Context, n names.Name, loc string) (*CachedObject, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, loc, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("proxy: fetching %s: %w", loc, err)
	}
	return p.accept(n, loc, resp)
}

// Upstream bodies are read up to maxObjectBytes; anything longer is cut off
// there and fails verification. A declared Content-Length is trusted for a
// single exact-size allocation only up to maxPreallocBytes, so an upstream
// that announces a huge body and then stalls cannot make the proxy commit
// memory for bytes it never sends; longer bodies grow as they arrive.
const (
	maxObjectBytes   = 1 << 28
	maxPreallocBytes = 1 << 24
)

// readBody reads an upstream response body. When the length is declared,
// the buffer is allocated once at exactly that size — the cache keeps it
// for the entry's lifetime, and io.ReadAll's doubling would leave up to a
// quarter of it as unused capacity.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxPreallocBytes {
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxObjectBytes))
}

// accept is the one way into the cache: it consumes the response that loc
// (origin, mirror or sibling proxy) gave for n, runs the full
// self-certification check — which hashes the body, once — and builds the
// ready-to-send entry from the digest that check returns. A response that
// fails verification, or verifies for a different name, is counted in
// Stats.Rejected; one that is not a 200 or cannot be read is not.
func (p *Proxy) accept(n names.Name, loc string, resp *http.Response) (*CachedObject, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A sibling's "not cached" is the usual answer to a scoped lookup:
		// read the short error text so the connection goes back to the pool.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("proxy: fetching %s: status %s", loc, resp.Status)
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("proxy: reading %s: %w", loc, err)
	}
	v, err := metalink.VerifyResponse(resp.Header, body)
	if err == nil && v.Name != n {
		err = fmt.Errorf("response is for %s, requested %s", v.Name, n)
	}
	if err != nil {
		p.rejected.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrVerification, err)
	}
	return &CachedObject{
		Name:        n,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        body,
		Meta:        v,
		File:        v.File(),
		Fetched:     p.clock(),
	}, nil
}

// serveLegacy passes a request through to its host unchanged (no caching:
// legacy content has no self-certifying identity to cache under safely).
func (p *Proxy) serveLegacy(w http.ResponseWriter, r *http.Request) {
	p.legacy.Add(1)
	target := *r.URL
	if target.Scheme == "" {
		target.Scheme = "http"
	}
	if target.Host == "" {
		target.Host = r.Host
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target.String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// The status line is already on the wire; a copy error only means the
	// client or upstream went away mid-body, which each side sees itself.
	_, _ = io.Copy(w, resp.Body)
}

// CacheLen returns the number of cached objects.
func (p *Proxy) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cache.Len()
}
