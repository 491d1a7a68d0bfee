package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// perLayer is the traced run: every per-layer metric, on every workload.
// A daemon workload brings its own content, popularity and connection
// count to the daemon probes and borrows the reference simulator set-up;
// a simulator workload brings its topology and design to the simulator
// probes and borrows the reference daemon set-up. The driver wants every
// per-layer metric from every traced run, and a number borrowed from the
// reference is still a number measured in this run.
func perLayer(ctx context.Context, e *env, w workload, r *result) {
	dspec, sspec := w.daemon, w.sim
	for _, ref := range workloads(e.nproc) {
		if dspec == nil && ref.name == "daemon_hit" {
			dspec = ref.daemon
		}
		if sspec == nil && ref.name == "sim_edge_stream" {
			sspec = ref.sim
		}
	}
	rec := newRecorder()
	rate := daemonCounters(ctx, e, dspec, r)
	canary(ctx, e, r)
	daemonLayers(ctx, e, dspec, rec, rate, r)
	simLayers(e, sspec, rec, r)
	if err := writeTrace(e, w.name, rec.snapshot()); err != nil {
		r.fail("writing the span file: %v", err)
	}
	r.Attempted = max(r.Attempted, 1)
	for _, d := range perLayerMetrics {
		if _, ok := r.Metrics[d.name]; !ok && r.Correct {
			r.fail("metric %s was not measured", d.name)
		}
	}
}

// daemonCounters runs a short closed-loop and a short paced phase against
// the real daemon and reads the layers' own counters from /debug/metrics
// before and after — numbers the daemon keeps anyway, so reading them adds
// nothing to the requests in between. It returns the closed-loop rate.
func daemonCounters(ctx context.Context, e *env, spec *daemonSpec, r *result) float64 {
	tl := &tally{}
	defer func() {
		attempted, failed, firstErr := tl.snapshot()
		r.Attempted += attempted
		r.Failed += failed
		if failed > 0 {
			r.fail("%d of %d requests failed; first: %v", failed, attempted, firstErr)
		}
	}()
	dir, objs, err := contentDir(e, "layers", spec)
	if err != nil {
		r.fail("generating content: %v", err)
		return 0
	}
	defer os.RemoveAll(dir)
	s, err := serve(ctx, e, spec, dir, objs, tl)
	if err != nil {
		r.fail("set-up: %v", err)
		return 0
	}
	defer s.stop()

	debug := newHTTPClient(1)
	defer debug.CloseIdleConnections()
	read := func() map[string]float64 {
		m, err := s.d.metrics(ctx, debug)
		if err != nil {
			r.fail("%v (daemon: %s)", err, s.d.diagnosis())
			return map[string]float64{}
		}
		return m
	}
	dur := time.Duration(e.seconds * 0.15 * float64(time.Second))
	m0, cpu0 := read(), selfCPU()
	sat := closedLoop(ctx, s.t, s.conns, dur, saturationSegments, tl)
	cpu1, m1 := selfCPU(), read()
	if sat.aborted {
		r.fail("idicnd exited mid-run: %s", s.d.diagnosis())
		return 0
	}
	p := paced(ctx, s.t, s.conns, spec.pacedRate, int(spec.pacedRate*dur.Seconds()), tl)
	m2 := read()
	if p.aborted || len(p.samples) == 0 {
		r.fail("idicnd exited mid-run: %s", s.d.diagnosis())
		return 0
	}

	delta := func(name string) float64 { return m1[name] - m0[name] }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	reqs := delta("proxy_requests_total")
	r.set("proxy.busy_us_per_req", per(delta("proxy_request_seconds_sum")*1e6, reqs))
	r.set("proxy.hit_ratio", per(delta("proxy_cache_hits_total"), delta("proxy_cache_hits_total")+delta("proxy_cache_misses_total")))
	r.set("proxy.response_bytes_per_req", per(delta("proxy_response_bytes_total"), reqs))
	r.set("resolver.requests_per_req", per(delta("resolver_requests_total"), reqs))
	r.set("origin.requests_per_req", per(delta("origin_requests_total"), reqs))
	r.set("origin.store_hits_per_req", per(delta("origin_store_hits"), reqs))
	r.set("overload.proxy_queue_wait_us_per_req", per(delta("proxy_overload_queue_wait_seconds_sum")*1e6, reqs))
	// Busy time per request the component itself served, over the daemon's
	// life (registrations and the cache fill included): on a workload whose
	// timed phase never reaches the resolver or the origin this still says
	// what a request there costs; *.requests_per_req says how many there are.
	r.set("resolver.busy_us_per_req", per(m2["resolver_request_seconds_sum"]*1e6, m2["resolver_request_seconds_count"]))
	r.set("origin.busy_us_per_req", per(m2["origin_request_seconds_sum"]*1e6, m2["origin_request_seconds_count"]))
	limit := m0["proxy_overload_limit"]
	for _, m := range []map[string]float64{m1, m2} {
		limit = min(limit, m["proxy_overload_limit"])
	}
	r.set("overload.proxy_limit_min", limit)
	r.set("overload.shed_total", m2["proxy_overload_shed_total"]+m2["resolver_overload_shed_total"]+m2["origin_overload_shed_total"])

	r.set("client.cpu_us_per_req", per(us(cpu1-cpu0), float64(sat.requests)))
	r.set("client.late_p99_us", p.quantile(lateOf, 0.99))
	r.set("client.latency_p99_us", p.quantile(latencyOf, 0.99))
	r.set("client.latency_p999_us", p.quantile(latencyOf, 0.999))
	return sat.rate
}

// canary sends two connections' worth of concurrent cache misses at a
// throwaway daemon and reports whether it survived. On the seed commit it
// does not (the origin's front cache is an unsynchronised map), which is
// why daemon_miss runs one connection. Untimed; not a failed check.
func canary(ctx context.Context, e *env, r *result) {
	r.set("origin.concurrent_miss_crash", 0)
	// Enough small objects that two connections keep missing for about a
	// second.
	spec := &daemonSpec{names: 3072, size: 256, scan: true, conns: 2}
	dir := filepath.Join(e.scratch, "canary")
	objs, err := generateContent(dir, e.seed, spec.names, spec.size)
	if err != nil {
		r.fail("canary content: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	s, err := serve(ctx, e, spec, dir, objs, &tally{})
	if err != nil {
		r.fail("canary set-up: %v", err)
		return
	}
	defer s.stop()
	// One pass over the names: every request is a miss, half of them on
	// each connection.
	var tl tally
	pass := paced(ctx, s.t, s.conns, 1e6, spec.names, &tl)
	crashed := pass.aborted
	if _, failed, _ := tl.snapshot(); failed > 0 && !crashed {
		// Requests can fail a moment before the exit is seen: a dying Go
		// program prints its goroutines first.
		select {
		case <-s.d.dead:
			crashed = true
		case <-time.After(time.Second):
		}
	}
	if crashed {
		r.set("origin.concurrent_miss_crash", 1)
		fmt.Fprintf(os.Stderr, "bench: canary: idicnd died under two concurrent misses: %s\n", s.d.diagnosis())
	}
}
