package experiments

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"idicn/internal/cache"
	"idicn/internal/sim"
)

// PolicyOptimalityRow compares online replacement policies against Belady's
// offline optimum at the cache that matters most in the paper's story: the
// edge leaf.
type PolicyOptimalityRow struct {
	Policy        string
	HitRatio      float64
	FractionOfOpt float64 // hit ratio relative to Belady's
}

// AblationPolicyOptimality checks the paper's §3 premise that "the LRU
// policy performs near-optimally in practical scenarios": it replays every
// leaf's request sub-stream from the standard workload against LRU, LFU,
// and Belady's MIN with the same per-leaf capacity, and reports aggregate
// hit ratios.
func AblationPolicyOptimality(p Params) ([]PolicyOptimalityRow, error) {
	tp := p.sweepTopology()
	cfg, reqs := p.Workload(tp)
	capacity := int(math.Round(p.BudgetFraction * float64(cfg.Objects)))
	if capacity < 1 {
		capacity = 1
	}

	// Split the stream into per-leaf sub-sequences, indexed densely by
	// (PoP, leaf) so the replay order below is deterministic.
	leaves := cfg.Network.LeavesPerTree()
	streams := make([][]int32, cfg.Network.PoPs()*leaves)
	for _, q := range reqs {
		k := int(q.PoP)*leaves + int(q.Leaf)
		streams[k] = append(streams[k], q.Object)
	}

	// Replay every leaf's sub-stream on the worker pool: the three policy
	// replays per leaf are independent, and the aggregate counters are
	// order-insensitive sums, so results are deterministic.
	seqs := make([][]int32, 0, len(streams))
	for _, seq := range streams {
		if len(seq) > 0 {
			seqs = append(seqs, seq)
		}
	}
	var total, lruHits, lfuHits, optHits atomic.Int64
	workers := p.Workers
	if workers <= 0 {
		workers = sim.DefaultWorkers()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(seqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seqs) {
					return
				}
				seq := seqs[i]
				total.Add(int64(len(seq)))
				lruHits.Add(cache.LRUHits(seq, capacity))
				lfuHits.Add(cache.LFUHits(seq, capacity))
				optHits.Add(cache.BeladyHits(seq, capacity))
			}
		}()
	}
	wg.Wait()
	n, lru, lfu, best := total.Load(), lruHits.Load(), lfuHits.Load(), optHits.Load()
	if n == 0 || best == 0 {
		return nil, fmt.Errorf("experiments: empty workload for policy comparison")
	}
	rows := []PolicyOptimalityRow{
		{Policy: "Belady-MIN (offline optimal)", HitRatio: float64(best) / float64(n), FractionOfOpt: 1},
		{Policy: "LRU", HitRatio: float64(lru) / float64(n), FractionOfOpt: float64(lru) / float64(best)},
		{Policy: "LFU", HitRatio: float64(lfu) / float64(n), FractionOfOpt: float64(lfu) / float64(best)},
	}
	return rows, nil
}

// FormatPolicyOptimality renders the policy-vs-optimal comparison.
func FormatPolicyOptimality(rows []PolicyOptimalityRow) string {
	return table("Policy\tLeaf hit ratio\tFraction of optimal", rows, func(r PolicyOptimalityRow) string {
		return fmt.Sprintf("%s\t%.3f\t%.3f", r.Policy, r.HitRatio, r.FractionOfOpt)
	})
}
