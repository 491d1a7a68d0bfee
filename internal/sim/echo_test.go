package sim

import (
	"sync"
	"testing"

	"idicn/internal/topo"
	"idicn/internal/trace"
)

// serveRecorder is an Observer that keeps every ServeEvent in arrival order.
type serveRecorder struct {
	mu     sync.Mutex
	events []ServeEvent
}

func (r *serveRecorder) ObserveServe(ev ServeEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *serveRecorder) ObserveEvict(EvictEvent) {}

// echoWorkload is a small locality-0.5 workload on tp with every request
// duplicated in place: q1, q1, q2, q2, ...
func echoWorkload(tp *topo.Topology) (Config, []Request) {
	net := topo.NewNetwork(tp, 2, 3)
	const objects = 2000
	weights := tp.PopulationWeights()
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: 9000, Objects: objects, Alpha: 1.04,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 29,
		TemporalLocality: 0.5,
	})
	echoed := make([]Request, 0, 2*len(reqs))
	for _, q := range reqs {
		echoed = append(echoed, q, q)
	}
	cfg := Config{
		Network: net, Objects: objects,
		Origins:        trace.OriginAssignment(objects, weights, true, 7),
		BudgetFraction: 0.05, BudgetPolicy: BudgetProportional,
	}
	return cfg, echoed
}

// TestRequestEchoServedAtLeaf is a metamorphic relation over the whole
// engine: whatever served a request, its response leaves the object in the
// arrival leaf's cache, so an immediate repeat of the request (same PoP,
// leaf and object) is a leaf hit under every baseline design — through
// Engine.Run and through the sharded stream loop alike.
func TestRequestEchoServedAtLeaf(t *testing.T) {
	for _, tp := range []*topo.Topology{topo.Abilene(), topo.Geant(), topo.ATT()} {
		base, reqs := echoWorkload(tp)
		for _, d := range BaselineDesigns() {
			t.Run(tp.Name+"/"+d.Name, func(t *testing.T) {
				cfg := d.Apply(base)

				// Engine.Run emits events in request order: echoes are the
				// odd-indexed ones.
				rec := &serveRecorder{}
				cfg.Observer = rec
				if _, err := RunConfig(cfg, reqs); err != nil {
					t.Fatal(err)
				}
				if len(rec.events) != len(reqs) {
					t.Fatalf("Run: %d events for %d requests", len(rec.events), len(reqs))
				}
				for i := 1; i < len(rec.events); i += 2 {
					checkEcho(t, "Run", i/2, rec.events[i-1], rec.events[i])
				}

				// The stream's shards emit in per-PoP order, so an echo pairs
				// with the previous event from its own PoP.
				rec = &serveRecorder{}
				cfg.Observer = nil
				if _, err := RunStream(cfg, trace.Requests(reqs), StreamOptions{Workers: 1, Observer: rec}); err != nil {
					t.Fatal(err)
				}
				if len(rec.events) != len(reqs) {
					t.Fatalf("RunStream: %d events for %d requests", len(rec.events), len(reqs))
				}
				prev := map[int32]*ServeEvent{}
				echoes := 0
				for i := range rec.events {
					ev := &rec.events[i]
					if p := prev[ev.PoP]; p != nil {
						checkEcho(t, "RunStream", echoes, *p, *ev)
						echoes++
						delete(prev, ev.PoP)
						continue
					}
					prev[ev.PoP] = ev
				}
				if echoes != len(reqs)/2 {
					t.Fatalf("RunStream: paired %d echoes, want %d", echoes, len(reqs)/2)
				}
			})
		}
	}
}

func checkEcho(t *testing.T, loop string, k int, first, echo ServeEvent) {
	t.Helper()
	if echo.Object != first.Object || echo.PoP != first.PoP {
		t.Fatalf("%s: echo %d is object %d at PoP %d, request was object %d at PoP %d",
			loop, k, echo.Object, echo.PoP, first.Object, first.PoP)
	}
	if echo.Level != ServeLeaf {
		t.Fatalf("%s: echo %d of object %d at PoP %d served at %s (request served at %s), want leaf",
			loop, k, echo.Object, echo.PoP, echo.Level, first.Level)
	}
}
