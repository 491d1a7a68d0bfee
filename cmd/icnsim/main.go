// Command icnsim regenerates the paper's tables and figures from the
// request-level cache simulator.
//
// Usage:
//
//	icnsim -exp <id>[,<id>...] [-scale 0.1] [-seed N] [-arity 2] [-depth 5] [-budget 0.05] \
//	       [-alpha 1.04] [-objects N] [-sweep-topology ATT] [-workers N]
//	icnsim -exp all     # every artifact, in paper order
//	icnsim -policy arc -exp fig6    # run any experiment under a different cache policy
//	icnsim -failures 0,0.1,0.3,0.5   # degradation curve under cache/resolver outages
//	icnsim -stream 4000000 -stream-design EDGE   # one sharded streaming run
//	icnsim -exp fig6 -metrics-json metrics.json   # observer histograms for the run
//
// The experiment ids are experiments.Registry's; `icnsim -h` lists them.
// Scale 1 is paper scale (the 1.8M-request Asia workload); the default 0.05
// finishes in minutes on a laptop core. Output is aligned text, one table
// per experiment, matching the rows/series of the paper's evaluation.
//
// Independent simulation runs fan out across a worker pool (-workers,
// default GOMAXPROCS). Every run is deterministic given its configuration,
// so output is byte-identical at any worker count. -cpuprofile/-memprofile
// write runtime/pprof profiles for perf work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"idicn/internal/experiments"
	"idicn/internal/sim"
	"idicn/internal/topo"
)

func main() {
	if err := icnsim(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "icnsim: %v\n", err)
		os.Exit(1)
	}
}

// icnsim is the whole command: it parses args, runs the selected
// experiments (or one streaming run), and returns the first error.
func icnsim(args []string) (err error) {
	fs := flag.NewFlagSet("icnsim", flag.ExitOnError)
	var (
		exp         = fs.String("exp", "all", "experiments to run: all, or a comma-separated list of "+experimentIDs())
		scale       = fs.Float64("scale", 0.05, "workload scale; 1 = paper scale")
		seed        = fs.Int64("seed", 0, "override base seed (0 keeps the default)")
		arity       = fs.Int("arity", 0, "override access-tree arity")
		depth       = fs.Int("depth", 0, "override access-tree depth")
		budget      = fs.Float64("budget", 0, "override per-router budget fraction F")
		alpha       = fs.Float64("alpha", 0, "override Zipf alpha")
		objects     = fs.Int("objects", 0, "override object-universe size")
		sweepTopo   = fs.String("sweep-topology", "", "topology for the sensitivity sweeps (default ATT)")
		policy      = fs.String("policy", "", "cache policy for every provisioned cache: lru, lfu, arc, car, tinylfu, tinylfu+arc, tinylfu+car (default lru)")
		locality    = fs.Float64("locality", 0, "temporal locality of the request stream (0=IID, ~0.7=trace-like)")
		topoFile    = fs.String("topology-file", "", "load a custom sweep topology from a file (see internal/topo/parse.go for the format)")
		traceFile   = fs.String("trace", "", "request log (tracegen format) for the trace-designs experiment")
		failures    = fs.String("failures", "", "comma-separated cache-failure fractions for the degradation experiment (e.g. 0,0.1,0.3,0.5); implies -exp degradation")
		seeds       = fs.Int("seeds", 5, "independent seeds for the variance experiment (at least 2)")
		workers     = fs.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS); results are identical at any count")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		stream      = fs.Int64("stream", 0, "run one sharded streaming simulation over this many synthetic requests (or a -trace binary file) and print throughput + peak RSS, then exit")
		users       = fs.Int("users", 0, "fixed user population for -stream synthetic workloads (0 = per-request sampling)")
		epochLen    = fs.Int("epoch", 0, "epoch length in requests for sharded streaming runs (0 = default)")
		streamDes   = fs.String("stream-design", "EDGE", "design for the -stream run (ICN-SP, ICN-NR, EDGE, EDGE-Coop, EDGE-Norm)")
		metricsJSON = fs.String("metrics-json", "", "attach a metrics observer to every run and write its histograms (serve levels, latency, lookup hops, evictions) as JSON to this file; \"-\" writes to stdout")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Written on successful exits only.
		defer func() {
			if err == nil {
				err = writeHeapProfile(*memprofile)
			}
		}()
	}

	p := experiments.DefaultParams(*scale)
	p.Workers = *workers
	var metrics *sim.MetricsObserver
	if *metricsJSON != "" {
		metrics = sim.NewMetricsObserver(0)
		p.Observer = metrics
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *arity != 0 {
		p.Arity = *arity
	}
	if *depth != 0 {
		p.Depth = *depth
	}
	if *budget != 0 {
		p.BudgetFraction = *budget
	}
	if *alpha != 0 {
		p.Alpha = *alpha
	}
	if *objects != 0 {
		p.Objects = *objects
	}
	if *sweepTopo != "" {
		p.SweepTopology = *sweepTopo
	}
	if *policy != "" {
		if p.Policy, err = sim.ParseCachePolicy(*policy); err != nil {
			return fmt.Errorf("-policy: %w", err)
		}
	}
	if *locality != 0 {
		p.TemporalLocality = *locality
	}
	p.TraceFile = *traceFile
	if *seeds < 2 {
		return fmt.Errorf("-seeds %d: the variance experiment needs at least 2 seeds", *seeds)
	}
	p.VarianceSeeds = *seeds
	if *topoFile != "" {
		if p.CustomTopology, err = topo.LoadTopology(*topoFile); err != nil {
			return err
		}
	}

	if *workers > 0 {
		fmt.Fprintf(os.Stderr, "icnsim: using %d workers\n", *workers)
	}
	if *stream > 0 || (*traceFile != "" && *exp == "all" && experiments.IsBinaryTrace(*traceFile)) {
		// A sharded streaming run: synthetic (-stream N) or from a recorded
		// binary trace (-trace FILE, alone or with -stream).
		if err := runStreamScale(p, *stream, *users, *streamDes, *traceFile, *epochLen); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	} else {
		if *failures != "" {
			if p.FailFractions, err = parseFractions(*failures); err != nil {
				return fmt.Errorf("-failures: %w", err)
			}
			if *exp == "all" {
				*exp = "degradation" // -failures alone runs just the degradation curve
			}
		}
		todo, err := lookup(*exp)
		if err != nil {
			return err
		}
		for _, e := range todo {
			if err := runExperiment(e, p); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
	}
	if metrics != nil {
		if err := writeMetricsJSON(*metricsJSON, metrics); err != nil {
			return fmt.Errorf("metrics-json: %w", err)
		}
	}
	return nil
}

// experimentIDs lists every registered id, for -exp's usage and errors.
func experimentIDs() string {
	ids := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		ids[i] = e.ID
	}
	return strings.Join(ids, ", ")
}

// lookup resolves -exp: "all" is every registry entry not marked Extra, in
// registry order; anything else is a comma-separated list of ids.
func lookup(exp string) ([]experiments.Experiment, error) {
	var todo []experiments.Experiment
	if exp == "all" {
		for _, e := range experiments.Registry {
			if !e.Extra {
				todo = append(todo, e)
			}
		}
		return todo, nil
	}
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		i := slices.IndexFunc(experiments.Registry, func(e experiments.Experiment) bool { return e.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (want all or one of %s)", id, experimentIDs())
		}
		todo = append(todo, experiments.Registry[i])
	}
	return todo, nil
}

// runExperiment prints one artifact under its title, with a wall-clock
// footer (kept here: the experiments package may not read the clock).
func runExperiment(e experiments.Experiment, p experiments.Params) error {
	start := time.Now()
	out, err := e.Run(p)
	if err != nil {
		return err
	}
	fmt.Printf("== %s ==\n%s(%s, scale=%g)\n\n", e.Title, out, time.Since(start).Round(time.Millisecond), p.Scale)
	return nil
}

// writeMetricsJSON dumps the observer's aggregated run-level histograms.
func writeMetricsJSON(path string, m *sim.MetricsObserver) error {
	out, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icnsim: wrote observer metrics to %s\n", path)
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// parseFractions parses a comma-separated list of failure fractions.
func parseFractions(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fraction %q", part)
		}
		if !(f >= 0 && f <= 1) { // NaN fails both comparisons
			return nil, fmt.Errorf("fraction %g outside [0,1]", f)
		}
		out = append(out, f)
	}
	return out, nil
}
