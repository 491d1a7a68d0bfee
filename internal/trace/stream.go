package trace

import (
	"math"
	"math/rand"
	"sort"
)

// Request is one simulator arrival: object Object requested at leaf Leaf
// (0-based leaf ordinal) of PoP's access tree.
type Request struct {
	PoP    int32
	Leaf   int32
	Object int32
}

// StreamConfig parameterizes a synthetic simulator workload (paper §4.1):
// requests arrive at uniformly random leaves of PoPs chosen proportionally
// to PoPWeights, with object popularity Zipf(Alpha) and optional spatial
// skew of per-PoP popularity rankings (§5.1).
type StreamConfig struct {
	Requests    int
	Objects     int
	Alpha       float64
	SpatialSkew float64   // 0: identical rankings everywhere; 1: independent per PoP
	PoPWeights  []float64 // relative request volume per PoP (need not sum to 1)
	Leaves      int       // leaves per access tree
	Seed        int64

	// TemporalLocality in [0, 1) injects short-term reuse: with this
	// probability a request repeats one of the recent objects requested at
	// the same leaf (clients sit behind a fixed access leaf, so their
	// revisits land there) instead of drawing fresh from the Zipf
	// distribution. Real CDN logs exhibit strong temporal locality (the
	// paper's dataset served ~70% of requests locally); IID Zipf streams
	// have none, which is the main reason synthetic workloads overstate
	// nearest-replica routing's advantage — see
	// experiments.LocalityKnob.
	TemporalLocality float64
	// LocalityWindow is the per-leaf recency window size (default 64).
	LocalityWindow int

	// Users > 0 draws each request from a fixed population of that many
	// users instead of sampling (PoP, leaf) independently per request. Every
	// user has a stable home leaf — the PoP drawn by PoPWeights and the leaf
	// uniformly, both from a seeded hash of the user id — so no per-user
	// state is kept and multi-million-user populations cost nothing. 0 keeps
	// the original per-request sampling.
	Users int
}

// NewSyntheticRequests materializes a synthetic request stream. The result
// is deterministic in the config, and identical to draining
// Synthetic(cfg) — this is that stream collected into a slice.
func NewSyntheticRequests(cfg StreamConfig) []Request {
	s := newSynthStream(cfg)
	reqs := make([]Request, cfg.Requests)
	for i := range reqs {
		s.Next(&reqs[i])
	}
	return reqs
}

// FromRecords converts a CDN request log into a simulator stream, assigning
// each record to a PoP with probability proportional to popWeights and to a
// uniformly random leaf, exactly as §4.2 assigns the Asia trace.
func FromRecords(records []Record, popWeights []float64, leaves int, seed int64) []Request {
	if leaves <= 0 || len(popWeights) == 0 {
		panic("trace: invalid FromRecords arguments")
	}
	r := rand.New(rand.NewSource(seed))
	popPick := newWeightedPicker(popWeights)
	reqs := make([]Request, len(records))
	for i, rec := range records {
		reqs[i] = Request{
			PoP:    int32(popPick.pick(r)),
			Leaf:   int32(r.Intn(leaves)),
			Object: rec.Object,
		}
	}
	return reqs
}

// SkewPermutations builds one popularity permutation per PoP:
// perms[p][rank] is the object holding that popularity rank at PoP p.
// skew 0 returns nil (identity everywhere); skew 1 gives every PoP an
// independent uniform ranking; intermediate values interpolate by ranking
// objects on the blended score (1-skew)*globalRank + skew*noise, which
// realizes the paper's spatial-skew dial (§5.1 and footnote 5).
func SkewPermutations(pops, objects int, skew float64, seed int64) [][]int32 {
	if skew < 0 || skew > 1 {
		panic("trace: spatial skew must be in [0, 1]")
	}
	if skew == 0 {
		return nil
	}
	perms := make([][]int32, pops)
	type scored struct {
		obj   int32
		score float64
	}
	for p := 0; p < pops; p++ {
		r := rand.New(rand.NewSource(seed + int64(p)*7919))
		items := make([]scored, objects)
		for o := 0; o < objects; o++ {
			// Normalized global rank in [0,1) blended with uniform noise.
			items[o] = scored{
				obj:   int32(o),
				score: (1-skew)*float64(o)/float64(objects) + skew*r.Float64(),
			}
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].score != items[j].score {
				return items[i].score < items[j].score
			}
			return items[i].obj < items[j].obj
		})
		perm := make([]int32, objects)
		for rank, it := range items {
			perm[rank] = it.obj
		}
		perms[p] = perm
	}
	return perms
}

// SpatialSkewMetric computes the paper's skew measure (footnote 5):
// avg over objects of the standard deviation of the object's per-PoP rank,
// divided by the number of objects. nil perms (identity) yield 0.
func SpatialSkewMetric(perms [][]int32, objects int) float64 {
	if len(perms) == 0 {
		return 0
	}
	pops := len(perms)
	// rank[p][o]: invert each permutation.
	ranks := make([][]int32, pops)
	for p, perm := range perms {
		inv := make([]int32, objects)
		for rank, obj := range perm {
			inv[obj] = int32(rank)
		}
		ranks[p] = inv
	}
	var total float64
	for o := 0; o < objects; o++ {
		var sum, sumSq float64
		for p := 0; p < pops; p++ {
			v := float64(ranks[p][o])
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(pops)
		variance := sumSq/float64(pops) - mean*mean
		if variance < 0 {
			variance = 0
		}
		total += math.Sqrt(variance)
	}
	return total / float64(objects) / float64(objects)
}

// weightedPicker draws indices with probability proportional to weights.
type weightedPicker struct {
	cum []float64
}

func newWeightedPicker(weights []float64) *weightedPicker {
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("trace: negative weight")
		}
		sum += w
		cum[i] = sum
	}
	if sum <= 0 {
		panic("trace: weights sum to zero")
	}
	inv := 1 / sum
	for i := range cum {
		cum[i] *= inv
	}
	cum[len(cum)-1] = 1
	return &weightedPicker{cum: cum}
}

func (w *weightedPicker) pick(r *rand.Rand) int {
	return w.pickValue(r.Float64())
}

// pickValue maps a uniform variate in [0, 1) to an index, letting callers
// supply their own randomness source (e.g. a hash-derived variate).
func (w *weightedPicker) pickValue(u float64) int {
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.cum) {
		i = len(w.cum) - 1
	}
	return i
}

// OriginAssignment maps each object to the PoP that hosts it as origin
// server. With proportional true, objects are assigned with probability
// proportional to weights (the paper's default: "the number of objects it
// hosts is also proportional to the population"); otherwise uniformly.
func OriginAssignment(objects int, weights []float64, proportional bool, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	origins := make([]int32, objects)
	if proportional {
		pick := newWeightedPicker(weights)
		for o := range origins {
			origins[o] = int32(pick.pick(r))
		}
		return origins
	}
	for o := range origins {
		origins[o] = int32(r.Intn(len(weights)))
	}
	return origins
}
