package proxy

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"idicn/internal/idicn/names"
)

// Scoped cooperation: the application-layer realization of the simulator's
// EDGE-Coop design (paper §4.1). An edge proxy that misses first asks its
// configured sibling proxies — one scoped lookup, no recursion — before
// resolving the name and going toward the origin. Because all content is
// self-certifying, a proxy can safely serve what a peer returns after
// verifying it, with no trust in the peer.

// coopHeader marks a peer lookup so the receiving proxy answers only from
// its cache and never recurses to its own peers or to the origin.
const coopHeader = "X-Idicn-Coop"

// WithPeers configures sibling proxies (base URLs) for scoped cooperative
// lookup.
func WithPeers(urls ...string) Option {
	return func(p *Proxy) {
		for _, u := range urls {
			p.peers = append(p.peers, strings.TrimRight(u, "/"))
		}
	}
}

// CoopStats counts cooperative-lookup outcomes.
type CoopStats struct {
	PeerHits   int64 // served via a sibling proxy
	PeerProbes int64 // lookups sent to siblings
	PeerServed int64 // lookups this proxy answered for siblings
}

// CoopStats returns a snapshot of the cooperation counters.
func (p *Proxy) CoopStats() CoopStats {
	return CoopStats{
		PeerHits:   p.peerHits.Load(),
		PeerProbes: p.peerProbes.Load(),
		PeerServed: p.peerServed.Load(),
	}
}

// lookupPeers asks each sibling in order for a cached copy, verifying any
// response before accepting it. It returns nil when no sibling can help.
func (p *Proxy) lookupPeers(ctx context.Context, n names.Name) *CachedObject {
	for _, peer := range p.peers {
		p.peerProbes.Add(1)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/", nil)
		if err != nil {
			continue
		}
		req.Host = n.DNS()
		req.Header.Set(coopHeader, "1")
		resp, err := p.client.Do(req)
		if err != nil {
			continue
		}
		obj, err := p.accept(n, peer, resp)
		if err != nil {
			continue
		}
		p.peerHits.Add(1)
		return obj
	}
	return nil
}

// serveCoopLookup answers a sibling's scoped lookup strictly from cache.
func (p *Proxy) serveCoopLookup(w http.ResponseWriter, n names.Name) {
	p.mu.Lock()
	obj, ok := p.cache.Get(n.String())
	p.mu.Unlock()
	if !ok || (p.TTL != 0 && p.clock().Sub(obj.Fetched) >= p.TTL) {
		http.Error(w, fmt.Sprintf("proxy: %s not cached", n), http.StatusNotFound)
		return
	}
	p.peerServed.Add(1)
	obj.setHeaders(w.Header())
	w.Header().Set("X-Cache", "PEER")
	_, _ = w.Write(obj.Body) // a disconnected peer is its problem, not ours
}
