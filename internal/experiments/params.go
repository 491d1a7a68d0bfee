// Package experiments contains one harness per table and figure in the
// paper's evaluation (§2.2, §4, §5): each produces the same rows or series
// the paper reports, on synthetic substrates scaled by a single knob.
//
// Every harness is deterministic given (Params.Scale, Params.Seed), so the
// tables in EXPERIMENTS.md regenerate exactly.
package experiments

import (
	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

// Params carries the simulation configuration shared by the §4/§5
// experiments. DefaultParams reproduces the paper's baseline setup.
type Params struct {
	// Scale shrinks the workload: 1 is paper scale (the 1.8M-request Asia
	// trace); tests use 0.01-0.02.
	Scale float64
	Seed  int64

	Arity int // access-tree arity (paper baseline: 2)
	Depth int // access-tree depth (paper baseline: 5)

	BudgetFraction     float64 // F, per-router cache fraction (paper: 5%)
	BudgetPolicy       sim.BudgetPolicy
	OriginProportional bool // origin assignment proportional to population

	Alpha       float64 // request popularity exponent (Asia best fit: 1.04)
	SpatialSkew float64

	// TemporalLocality injects per-leaf short-term reuse into the synthetic
	// stream (see trace.StreamConfig.TemporalLocality). Zero reproduces an
	// IID Zipf stream. The NR-over-EDGE gap shrinks to about (1 - q) of the
	// IID gap, so ~0.7 lands on the paper's reported magnitudes mostly by
	// dilution (see EXPERIMENTS.md and AblationTemporalLocality).
	TemporalLocality float64

	// ObjectDivisor sets the simulated object universe to
	// requests/ObjectDivisor (min 200). The default (360) puts caches in
	// the full-and-churning regime at F=5%, which the paper's results imply
	// (EDGE-Norm helps, and Figure 8(b) shows budget sensitivity): with a
	// universe much larger than this, caches never fill, evictions never
	// happen, and nearest-replica routing enjoys an unrealistically large
	// advantage. See AblationObjectUniverse for the regime sweep.
	ObjectDivisor int

	// Objects, when positive, fixes the object-universe size directly and
	// overrides ObjectDivisor.
	Objects int

	// Policy selects the cache replacement/admission policy every
	// provisioned cache runs (default LRU, the paper's baseline). cmd/icnsim
	// resolves its -policy flag here; PolicySweep overrides it per row.
	Policy sim.CachePolicy

	// SweepTopology names the topology for the §5 sensitivity sweeps
	// (Figures 8-10, Table 4, the latency/capacity/size checks). The paper
	// uses the largest topology, ATT (the default); tests use a smaller,
	// warmer one.
	SweepTopology string

	// CustomTopology, when set, overrides SweepTopology with a
	// user-supplied map (see topo.LoadTopology and icnsim -topology-file).
	CustomTopology *topo.Topology

	// TraceFile names a request log for TraceDrivenDesigns; VarianceSeeds
	// sets the seed count for SeedVariance; FailFractions sets the points
	// of DegradationCurve (nil = its default). All are CLI conveniences
	// the Registry entries read.
	TraceFile     string
	VarianceSeeds int
	FailFractions []float64

	// Workers bounds the parallel runner's pool for every batch an
	// experiment launches; <= 0 means sim.DefaultWorkers(). cmd/icnsim
	// resolves its -workers flag here — there is no package-global worker
	// state anywhere.
	Workers int

	// Observer, when non-nil, is attached to every simulation run of the
	// experiment (baselines included), collecting hit levels, lookup hops,
	// evictions, and latency histograms across the whole sweep. Because
	// runs execute concurrently it must be safe for concurrent use;
	// sim.MetricsObserver is.
	Observer sim.Observer
}

// simOptions resolves the Params fields the parallel runner cares about.
func (p Params) simOptions() sim.Options {
	return sim.Options{Workers: p.Workers, Observer: p.Observer}
}

// DefaultParams returns the §4 baseline configuration: binary depth-5 access
// trees, F=5%, population-proportional budgets and origins, the Asia trace's
// best-fit Zipf exponent, and no spatial skew.
func DefaultParams(scale float64) Params {
	return Params{
		Scale:              scale,
		Seed:               20130812, // SIGCOMM'13 opening day
		Arity:              2,
		Depth:              5,
		BudgetFraction:     0.05,
		BudgetPolicy:       sim.BudgetProportional,
		OriginProportional: true,
		Alpha:              1.04,
		SpatialSkew:        0,
		ObjectDivisor:      360,
		SweepTopology:      "ATT",
	}
}

// sweepTopology resolves the topology used by the §5 sweeps.
func (p Params) sweepTopology() *topo.Topology {
	if p.CustomTopology != nil {
		return p.CustomTopology
	}
	tp := topo.ByName(p.SweepTopology)
	if tp == nil {
		tp = topo.ATT()
	}
	return tp
}

// workloadSize returns the request and object counts for the paper's Asia
// workload at the configured scale (1.8M requests at scale 1; see
// ObjectDivisor for the object-universe sizing).
func (p Params) workloadSize() (requests, objects int) {
	requests = int(1_800_000 * p.Scale)
	if requests < 1000 {
		requests = 1000
	}
	if p.Objects > 0 {
		return requests, p.Objects
	}
	div := p.ObjectDivisor
	if div <= 0 {
		div = 360
	}
	objects = requests / div
	if objects < 200 {
		objects = 200
	}
	return requests, objects
}

// buildNetAndSizes resolves the network and workload dimensions for a
// topology without materializing requests.
func (p Params) buildNet(tp *topo.Topology) (*topo.Network, int, int) {
	net := topo.NewNetwork(tp, p.Arity, p.Depth)
	requests, objects := p.workloadSize()
	return net, requests, objects
}

// Workload materializes the simulation inputs for one topology: the network,
// a base simulator config (placement/routing fields unset; stamp a Design
// onto it), and the request stream.
func (p Params) Workload(tp *topo.Topology) (sim.Config, []sim.Request) {
	net, requests, objects := p.buildNet(tp)
	weights := tp.PopulationWeights()
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests:         requests,
		Objects:          objects,
		Alpha:            p.Alpha,
		SpatialSkew:      p.SpatialSkew,
		PoPWeights:       weights,
		Leaves:           net.LeavesPerTree(),
		Seed:             p.Seed + 2,
		TemporalLocality: p.TemporalLocality,
	})
	return p.baseConfig(tp, net, objects), reqs
}

// baseConfig is the simulator config every experiment starts from: net and
// an object universe of the given size, with origins assigned by tp's
// population and p's budget, cache-policy and observer settings applied.
// Placement and routing are unset; stamp a Design onto it.
func (p Params) baseConfig(tp *topo.Topology, net *topo.Network, objects int) sim.Config {
	return sim.Config{
		Network:        net,
		Objects:        objects,
		Origins:        trace.OriginAssignment(objects, tp.PopulationWeights(), p.OriginProportional, p.Seed+1),
		BudgetFraction: p.BudgetFraction,
		BudgetPolicy:   p.BudgetPolicy,
		Policy:         p.Policy,
		Observer:       p.Observer,
	}
}

// GapNRvsEdge runs ICN-NR and EDGE on the same workload and returns
// RelImprov(ICN-NR) - RelImprov(EDGE) per metric, the sensitivity-analysis
// measure of §5.
func GapNRvsEdge(cfg sim.Config, reqs []sim.Request) (sim.Improvement, error) {
	gaps, err := gapBatch([]gapCase{{a: sim.ICNNR, b: sim.EDGE, cfg: cfg, reqs: reqs}}, sim.Options{})
	if err != nil {
		return sim.Improvement{}, err
	}
	return gaps[0], nil
}

// gapCase is one point of a sensitivity sweep: the workload plus the two
// designs whose improvement difference is measured.
type gapCase struct {
	a, b sim.Design
	cfg  sim.Config
	reqs []sim.Request
}

// gapBatch evaluates RelImprov(a) - RelImprov(b) for every case, fanning
// all runs (baseline, a, b per case) across the parallel runner in one
// batch. Results are ordered and deterministic regardless of worker count.
func gapBatch(cases []gapCase, opt sim.Options) ([]sim.Improvement, error) {
	sets := make([]sim.DesignSet, len(cases))
	for i, c := range cases {
		sets[i] = sim.DesignSet{Base: c.cfg, Designs: []sim.Design{c.a, c.b}, Reqs: c.reqs}
	}
	results, err := sim.CompareSets(sets, opt)
	if err != nil {
		return nil, err
	}
	gaps := make([]sim.Improvement, len(cases))
	for i, r := range results {
		gaps[i] = sim.Gap(r[0].Improvement, r[1].Improvement)
	}
	return gaps, nil
}

// nrEdgeCases builds the standard ICN-NR vs EDGE case list from parallel
// slices of workloads.
func nrEdgeCases(cfgs []sim.Config, reqss [][]sim.Request) []gapCase {
	cases := make([]gapCase, len(cfgs))
	for i := range cfgs {
		cases[i] = gapCase{a: sim.ICNNR, b: sim.EDGE, cfg: cfgs[i], reqs: reqss[i]}
	}
	return cases
}
