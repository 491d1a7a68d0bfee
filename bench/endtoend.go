package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a daemon run launches, publishes and warms the
// daemon; setup_s is the median. The last launch is the one the timed
// phases then use.
const setups = 3

// saturationSegments is the number of equal slices the closed-loop phase
// is cut into; req_per_s is their median rate.
const saturationSegments = 5

// pacedWindows is the number of equal windows the open-loop phase is cut
// into; each latency metric is the median of its per-window values.
const pacedWindows = 5

// served is a launched, published, warmed daemon plus the load aimed at it.
type served struct {
	d     *daemon
	t     *target
	setup time.Duration
	// conns are the workload's C callers. They outlive the phases, so a
	// scan carries on in the paced phase where the closed loop left it —
	// restarting it would turn the first requests into cache hits.
	conns  []*conn
	closed bool
}

// popSeed keeps the popularity law's seed apart from the content's.
func popSeed(seed int64) int64 { return seed*7919 + 13 }

func (s *served) stop() {
	if !s.closed {
		s.closed = true
		s.d.stop()
		s.t.hc.CloseIdleConnections()
	}
}

// serve launches the daemon on dir, learns the names and warms the cache
// over one connection. Set-up time runs from the launch to the last
// warm-up response: the instant the daemon is ready for a timed request.
func serve(ctx context.Context, e *env, spec *daemonSpec, dir string, objs []object, tl *tally) (*served, error) {
	start := time.Now()
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	d, err := startDaemon(sctx, e.idicnd, dir)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(spec.conns)
	hosts, err := d.hosts(sctx, hc, objs)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("%w (daemon: %s)", err, d.diagnosis())
	}
	s := &served{d: d, t: &target{hc: hc, proxyURL: d.proxyURL, hosts: hosts, objs: objs, dead: d.dead}}
	// Warm-up walks the names in order, so that after spec.warm = names
	// requests every object is cached whatever the popularity law. X-Cache
	// is not checked yet: these are the misses that fill the cache.
	if err := warm(sctx, s.t, scan(0, 1, spec.names), spec.warm, tl); err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up: %w (daemon: %s)", err, d.diagnosis())
	}
	s.t.wantHit = spec.wantHit
	s.setup = time.Since(start)

	s.conns = workloadConns(s.t, spec, e.seed)
	return s, nil
}

// workloadConns returns the workload's C callers, each with its own request
// stream: a Zipf sampler per connection, or one cyclic scan carried on from
// the warm-up and shared out (k, k+C, k+2C, ...).
func workloadConns(t *target, spec *daemonSpec, seed int64) []*conn {
	var pop *popularity
	if !spec.scan {
		pop = newPopularity(popSeed(seed), spec.names, zipfAlpha)
	}
	conns := make([]*conn, spec.conns)
	for k := range conns {
		next := scan(spec.warm+k, spec.conns, spec.names)
		if pop != nil {
			next = pop.sampler(k)
		}
		conns[k] = t.conn(next)
	}
	return conns
}

// contentDir generates the workload's files once per run.
func contentDir(e *env, name string, spec *daemonSpec) (string, []object, error) {
	dir := filepath.Join(e.scratch, name)
	objs, err := generateContent(dir, e.seed, spec.names, spec.size)
	return dir, objs, err
}

func daemonEndToEnd(ctx context.Context, e *env, w workload, r *result) {
	spec := w.daemon
	tl := &tally{}
	defer func() {
		var firstErr error
		r.Attempted, r.Failed, firstErr = tl.snapshot()
		r.Attempted = max(r.Attempted, 1)
		if r.Failed > 0 {
			r.fail("%d of %d requests failed; first: %v", r.Failed, r.Attempted, firstErr)
		}
	}()
	dir, objs, err := contentDir(e, w.name, spec)
	if err != nil {
		r.fail("generating content: %v", err)
		return
	}
	defer os.RemoveAll(dir)

	var s *served
	var setupTimes []float64
	for i := range setups {
		if s, err = serve(ctx, e, spec, dir, objs, tl); err != nil {
			r.fail("set-up %d: %v", i+1, err)
			return
		}
		setupTimes = append(setupTimes, s.setup.Seconds())
		if i < setups-1 {
			s.stop()
		}
	}
	defer s.stop()
	r.set("setup_s", median(setupTimes))

	// Saturation: closed loop, C callers back to back.
	half := time.Duration(e.seconds / 2 * float64(time.Second))
	cpu0, err := procCPU(s.d.pid)
	if err != nil {
		r.fail("reading daemon CPU time: %v", err)
		return
	}
	sat := closedLoop(ctx, s.t, s.conns, half, saturationSegments, tl)
	if sat.aborted {
		died(r, s, tl, spec, half)
		return
	}
	cpu1, err := procCPU(s.d.pid)
	if err != nil {
		r.fail("reading daemon CPU time: %v", err)
		return
	}
	r.set("req_per_s", sat.rate)
	r.set("cpu_us_per_req", us(cpu1-cpu0)/float64(max(sat.requests, 1)))

	// Paced: open loop at the workload's fixed rate.
	n := int(spec.pacedRate * half.Seconds())
	p := paced(ctx, s.t, s.conns, spec.pacedRate, n, tl)
	if p.aborted {
		died(r, s, tl, spec, 0)
		return
	}
	if len(p.samples) == 0 {
		r.fail("paced phase completed no request")
		return
	}
	r.set("latency_p50_us", p.windowQuantile(latencyOf, 0.50, pacedWindows))
	r.set("latency_p95_us", p.windowQuantile(latencyOf, 0.95, pacedWindows))
	r.set("ttfb_p50_us", p.windowQuantile(ttfbOf, 0.50, pacedWindows))

	rss, err := procPeakRSS(s.d.pid)
	if err != nil {
		r.fail("reading daemon peak RSS: %v", err)
		return
	}
	r.set("peak_rss_mb", rss)
}

// died records that the daemon went away mid-run: the diagnosis from its
// stderr, and the paced phase it never got (unsent seconds of it) written
// off as failed requests.
func died(r *result, s *served, tl *tally, spec *daemonSpec, pacedLeft time.Duration) {
	cause := fmt.Errorf("idicnd exited mid-run: %s", s.d.diagnosis())
	if pacedLeft > 0 {
		tl.writeOff(int64(spec.pacedRate*pacedLeft.Seconds()), cause)
	}
	r.fail("%v", cause)
}

func simEndToEnd(ctx context.Context, e *env, w workload, r *result) {
	spec := w.sim
	r.Attempted = 1
	args := func(workers int) []string {
		return append(append([]string(nil), spec.args...),
			"-seed", fmt.Sprint(e.seed), "-workers", fmt.Sprint(workers))
	}
	// The repo's own invariant, checked at every seed: the result does not
	// depend on the worker count. This child is not timed.
	ref, err := runSim(ctx, e.icnsim, args(1)...)
	if err != nil {
		r.fail("%v", err)
		return
	}
	r.Attempted = spec.requests
	if err := checkGolden(e, w.name, ref.block); err != nil {
		r.Failed += spec.requests
		r.fail("%v", err)
	}

	var wall, setup, cpu, rss, ttfo []float64
	began := time.Now()
	for len(wall) < 3 || time.Since(began).Seconds() < e.seconds {
		run, err := runSim(ctx, e.icnsim, args(e.nproc)...)
		r.Attempted += spec.requests
		if err != nil {
			r.Failed += spec.requests
			r.fail("%v", err)
			return
		}
		if run.block != ref.block {
			r.Failed += spec.requests
			r.fail("-workers %d and -workers 1 print different result blocks:\n%s\n-- versus --\n%s", e.nproc, run.block, ref.block)
			return
		}
		if spec.requests != run.requests && run.requests != 0 {
			r.Failed += spec.requests
			r.fail("icnsim served %d requests, the workload is %d", run.requests, spec.requests)
			return
		}
		wall = append(wall, run.wall.Seconds())
		setup = append(setup, (run.wall - run.reported).Seconds())
		cpu = append(cpu, us(run.cpu))
		rss = append(rss, run.peakMiB)
		ttfo = append(ttfo, us(run.ttfo))
	}
	n := float64(spec.requests)
	r.set("setup_s", median(setup))
	r.set("req_per_s", n/median(wall))
	r.set("cpu_us_per_req", median(cpu)/n)
	r.set("peak_rss_mb", median(rss))
	// One invocation is the researcher's "request": how long until the
	// table is there, and how long until the program printed anything at
	// all. A run has room for fewer than twenty invocations, so its 95th
	// percentile would be its slowest one — a single sample, which on a
	// shared host measures the neighbours. The tail reported is the upper
	// quartile: the highest quantile that still leaves a sample beyond it.
	sort.Float64s(wall)
	r.set("latency_p50_us", median(wall)*1e6)
	r.set("latency_p95_us", percentile(wall, 0.75)*1e6)
	r.set("ttfb_p50_us", median(ttfo))
}

// checkGolden holds a simulator workload's result block against the one
// committed for the default seed and this architecture. Floating-point
// results may differ between architectures (fused multiply-add), hence one
// file per GOARCH; an architecture without a file, and every other seed,
// is checked by the worker-count invariant alone.
func checkGolden(e *env, name, block string) error {
	if e.seed != 1 {
		return nil
	}
	path := filepath.Join(e.root, "bench", "golden", name+"."+runtime.GOARCH+".txt")
	if e.rewriteGolden {
		return os.WriteFile(path, []byte(block), 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	if block != string(want) {
		return fmt.Errorf("result block differs from %s:\n%s", path, block)
	}
	return nil
}
