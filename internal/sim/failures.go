package sim

import (
	"fmt"
	"math/rand"
)

// FailurePlan schedules component outages during a run, mirroring
// internal/faults for the simulator: at request-indexed epochs a seeded
// fraction of the caching nodes goes dark (inadmissible, receiving no
// inserts) and the resolution system itself may fail, degrading
// nearest-replica routing to shortest-path-toward-origin — the on-path
// caches a request passes anyway keep working, exactly the graceful
// degradation the real proxy implements. Recovery is automatic: a later
// epoch with a smaller (or zero) FailFraction restores nodes, with their
// contents intact.
//
// The plan is deterministic: the same Seed always fails the same nodes, so
// degradation curves are exactly reproducible.
type FailurePlan struct {
	Seed   int64
	Epochs []FailureEpoch
}

// FailureEpoch is one phase of a FailurePlan, in effect from request index
// Start until the next epoch begins (or the run ends).
type FailureEpoch struct {
	// Start is the request index at which the epoch takes effect.
	Start int64
	// FailFraction of the provisioned caching nodes is down, chosen by
	// seeded shuffle.
	FailFraction float64
	// ResolverDown disables replica lookup: nearest-replica requests fall
	// back to the shortest path toward the origin.
	ResolverDown bool
}

func (p *FailurePlan) validate() error {
	for i, ep := range p.Epochs {
		if !(ep.FailFraction >= 0 && ep.FailFraction <= 1) { // NaN fails both
			return fmt.Errorf("sim: epoch %d FailFraction %g outside [0,1]", i, ep.FailFraction)
		}
		if ep.Start < 0 {
			return fmt.Errorf("sim: epoch %d negative Start %d", i, ep.Start)
		}
		if i > 0 && ep.Start <= p.Epochs[i-1].Start {
			return fmt.Errorf("sim: epoch %d Start %d not after epoch %d Start %d",
				i, ep.Start, i-1, p.Epochs[i-1].Start)
		}
	}
	return nil
}

// advanceFailures applies every epoch whose Start has been reached. Called
// once per request only when a plan is configured; between epoch boundaries
// it is a single comparison.
func (e *Engine) advanceFailures(i int64) {
	for e.nextEpoch < len(e.cfg.FailurePlan.Epochs) && e.cfg.FailurePlan.Epochs[e.nextEpoch].Start <= i {
		e.applyEpoch(e.cfg.FailurePlan.Epochs[e.nextEpoch], e.nextEpoch)
		e.nextEpoch++
	}
}

// applyEpoch rebuilds the failed set for one epoch: a seeded shuffle of the
// provisioned cache nodes, with the first FailFraction marked down. This
// allocates (the permutation), but only at epoch boundaries — never on the
// per-request serve path.
func (e *Engine) applyEpoch(ep FailureEpoch, idx int) {
	clear(e.failed)
	e.resolverDown = ep.ResolverDown
	if ep.FailFraction <= 0 {
		return
	}
	nodes := e.cacheNodeList()
	count := int(float64(len(nodes))*ep.FailFraction + 0.5)
	if count > len(nodes) {
		count = len(nodes)
	}
	rng := rand.New(rand.NewSource(e.cfg.FailurePlan.Seed + int64(idx)))
	for _, pi := range rng.Perm(len(nodes))[:count] {
		e.failed[nodes[pi]] = true
	}
}

// cacheNodeList returns the provisioned cache nodes in NodeID order, built
// once per Engine.
func (e *Engine) cacheNodeList() []int32 {
	if e.cacheNodes == nil {
		for n, c := range e.caches {
			if c != nil {
				e.cacheNodes = append(e.cacheNodes, int32(n))
			}
		}
		if e.cacheNodes == nil {
			e.cacheNodes = []int32{} // no caches at all; remember we looked
		}
	}
	return e.cacheNodes
}

// FailedCacheCount reports how many caching nodes are currently down.
func (e *Engine) FailedCacheCount() int {
	n := 0
	for _, down := range e.failed {
		if down {
			n++
		}
	}
	return n
}
