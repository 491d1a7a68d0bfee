// Command bench is the repository's benchmark: one ruler for both halves
// of the reproduction. It builds cmd/idicnd and cmd/icnsim, drives them as
// black boxes for the end-to-end numbers, checks every output, and — in a
// separate traced run — measures the layers one by one from outside.
//
//	go run ./bench                                    # everything, default seed
//	go run ./bench -workload daemon_hit -trace 0      # one workload, end to end
//	go run ./bench -workload sim_fig6 -trace 1        # one workload, per layer
//	go run ./bench -agree                             # end to end twice, compared
//
// See bench/README.md for what each workload is for and what the benchmark
// depends on in the rest of the tree.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; its JSON form is the
// line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	notes    []string // failed checks and diagnoses, for the human reader
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env is what every run needs: where the binaries and scratch files are,
// and the run's parameters.
type env struct {
	root    string // module root (the checkout)
	idicnd  string
	icnsim  string
	scratch string // per-process directory under .bench_build, removed at exit
	outDir  string // bench/out
	nproc   int
	seed    int64
	seconds float64
	// rewriteGolden makes the simulator workloads save their result block
	// as the committed expectation instead of checking against it.
	rewriteGolden bool
}

func main() { os.Exit(run()) }

func run() int {
	var (
		sel     = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 2, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; 2: both")
		agree   = flag.Bool("agree", false, "run the end-to-end set twice and fail if any metric differs by more than its bound")
		rewrite = flag.Bool("rewrite-golden", false, "at -seed 1, save the simulator workloads' result blocks to bench/golden instead of checking them")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench [-workload a,b] [-seed N] [-seconds S] [-trace 0|1|2] [-agree]")
		return 2
	}
	nproc := runtime.NumCPU()
	all := workloads(nproc)
	var chosen []workload
	if *sel == "" {
		chosen = all
	}
	for _, name := range strings.Split(*sel, ",") {
		if name == "" {
			continue
		}
		i := slices.IndexFunc(all, func(w workload) bool { return w.name == name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		chosen = append(chosen, all[i])
	}

	e, err := prepare(nproc, *seed, float64(*seconds))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(e.scratch)
	e.rewriteGolden = *rewrite
	// An interrupted run still stops the daemons it started: cancellation
	// ends the load loops and the deferred stops run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *agree {
		return runAgree(ctx, e, chosen)
	}
	ok := true
	var results []*result
	for _, w := range chosen {
		r := &result{Correct: true, Metrics: map[string]metric{}, workload: w.name}
		if *trace != 1 {
			endToEnd(ctx, e, w, r)
		}
		if *trace != 0 {
			perLayer(ctx, e, w, r)
		}
		results = append(results, r)
		ok = ok && r.Correct && r.Failed == 0
	}
	if err := writeResults(e, results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		ok = false
	}
	for _, r := range results {
		report(r)
	}
	if !ok {
		return 1
	}
	return 0
}

// prepare locates the module, builds the two programs under test into
// .bench_build/bin and makes the scratch and output directories.
func prepare(nproc int, seed int64, seconds float64) (*env, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return nil, fmt.Errorf("locating the module (run from inside the repository): %w", err)
	}
	root := strings.TrimSpace(string(out))
	bin := filepath.Join(root, ".bench_build", "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/idicnd", "./cmd/icnsim")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/idicnd and cmd/icnsim: %w\n%s", err, msg)
	}
	e := &env{
		root:    root,
		idicnd:  filepath.Join(bin, "idicnd"),
		icnsim:  filepath.Join(bin, "icnsim"),
		scratch: filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		outDir:  filepath.Join(root, "bench", "out"),
		nproc:   nproc,
		seed:    seed,
		seconds: seconds,
	}
	for _, dir := range []string{e.scratch, e.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// endToEnd runs w black-box with tracing off and fills r with every
// end-to-end metric.
func endToEnd(ctx context.Context, e *env, w workload, r *result) {
	if w.daemon != nil {
		daemonEndToEnd(ctx, e, w, r)
	} else {
		simEndToEnd(ctx, e, w, r)
	}
	for _, d := range endToEndMetrics {
		if _, ok := r.Metrics[d.name]; !ok && r.Correct {
			r.fail("metric %s was not measured", d.name)
		}
	}
}

// report prints r for a person — every metric by name with its unit, then
// what went wrong, if anything — and, last, the JSON line for the driver.
func report(r *result) {
	fmt.Printf("== %s ==\n", r.workload)
	for _, list := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range list {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Printf("%-36s %16.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	fmt.Printf("attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, n := range r.notes {
		fmt.Printf("FAILED CHECK: %s\n", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return
	}
	fmt.Printf("%s\n", line)
}

// writeResults saves the run's results as bench/out/results.json.
func writeResults(e *env, results []*result) error {
	byName := make(map[string]*result, len(results))
	for _, r := range results {
		byName[r.workload] = r
	}
	data, err := json.MarshalIndent(byName, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "results.json"), append(data, '\n'), 0o644)
}
