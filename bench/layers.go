package main

// This file is the whole of the benchmark's dependence on the repository's
// Go packages: the traced run assembles the daemon's layers in-process
// through their public constructors, wraps every boundary it can reach
// with its own spans, and calls pure layer functions directly. Everything
// else in bench/ sees only the two binaries. A PR that changes a symbol
// used here must be preceded by a benchmark PR (see README, "Pinned
// surface").

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"idicn/internal/cache"
	"idicn/internal/httpx"
	"idicn/internal/idicn/metalink"
	"idicn/internal/idicn/names"
	"idicn/internal/idicn/origin"
	"idicn/internal/idicn/proxy"
	"idicn/internal/idicn/resolver"
	"idicn/internal/obs"
	"idicn/internal/overload"
	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

// Span names. A span's self time is the cost of the layer it is named
// after: the span around obs.Instrument minus the span just inside it is
// what obs.Instrument itself costs, and so on inwards.
const (
	spanInstrument = "/obs.instrument"      // prefixed by the component
	spanAdmission  = "/overload.middleware" // prefixed by the component
	spanHandler    = "/handler"             // prefixed by the component
	spanResolve    = "proxy/resolve"        // the proxy.Resolver call
	spanHopPrefix  = "hop/"                 // client side of an HTTP hop, + callee
)

// spanned wraps next in a span. The outermost wrapper of a component takes
// its parent from the X-Bench-Span header the calling component's
// transport set (none for a request from the load generator: a new
// request); inner wrappers take it from the context.
func spanned(rec *recorder, name string, outermost bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent := current(r.Context())
		if outermost {
			parent, _ = parseSpanHeader(r.Header.Get(spanHeader))
		}
		ctx, end := rec.begin(r.Context(), parent, name)
		next.ServeHTTP(w, r.WithContext(ctx))
		end()
	})
}

// spanTransport records the client side of an HTTP hop: from RoundTrip to
// the end of the response body, which is when the caller has what it asked
// for. It names the span it opens in X-Bench-Span so the callee's spans
// become its children.
type spanTransport struct {
	rec  *recorder
	name string
	next http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.next.RoundTrip(req)
	}
	ctx, end := t.rec.begin(req.Context(), current(req.Context()), t.name)
	req = req.Clone(ctx)
	req.Header.Set(spanHeader, current(ctx).header())
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

// spanBody closes its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	end func()
}

func (b *spanBody) finish() {
	if b.end != nil {
		b.end()
		b.end = nil
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// spanResolver times the proxy's calls into the resolution system.
type spanResolver struct {
	rec  *recorder
	next proxy.Resolver
}

func (s spanResolver) Resolve(ctx context.Context, name string) (resolver.Result, error) {
	if !s.rec.on.Load() {
		return s.next.Resolve(ctx, name)
	}
	ctx, end := s.rec.begin(ctx, current(ctx), spanResolve)
	defer end()
	return s.next.Resolve(ctx, name)
}

// inproc is the daemon's stack assembled in this process, in the wiring
// order of cmd/idicnd's newStack: obs.Instrument outside the overload
// middleware outside the handler, outbound clients through
// overload.Transport — with a span wrapper in every gap.
type inproc struct {
	rec        *recorder
	servers    []*httpx.Server
	transports []*http.Transport
	proxyURL   string
	registry   *resolver.Registry
	principal  *names.Principal
	origin     *origin.Server
	proxy      *proxy.Proxy
}

func newInproc(rec *recorder) (*inproc, error) {
	s := &inproc{rec: rec, registry: resolver.NewRegistry()}
	metrics := obs.NewRegistry()
	ctls := map[string]*overload.Controller{}
	listen := func(component string, h http.Handler) (string, error) {
		ctl := overload.NewController(overload.Config{})
		ctl.RegisterMetrics(metrics, component)
		ctls[component] = ctl
		h = spanned(rec, component+spanHandler, false, h)
		h = spanned(rec, component+spanAdmission, false, ctl.Middleware(h))
		h = spanned(rec, component+spanInstrument, true,
			obs.Instrument(component, obs.NewHTTPMetrics(metrics, component), h))
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := httpx.Start(lis, h)
		s.servers = append(s.servers, srv)
		return srv.URL(), nil
	}
	outbound := func(callee string) *http.Client {
		tr := &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
		s.transports = append(s.transports, tr)
		return &http.Client{
			Timeout:   10 * time.Second,
			Transport: overload.Transport(&spanTransport{rec: rec, name: spanHopPrefix + callee, next: tr}),
		}
	}

	resolverURL, err := listen("resolver", resolver.NewServer(s.registry))
	if err != nil {
		s.close()
		return nil, err
	}
	if s.principal, err = names.NewPrincipal(nil); err != nil {
		s.close()
		return nil, err
	}
	originURL, err := listen("origin", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.origin.ServeHTTP(w, r)
	}))
	if err != nil {
		s.close()
		return nil, err
	}
	s.origin = origin.New(s.principal, resolver.NewClient(resolverURL, outbound("resolver")), originURL)

	s.proxy = proxy.New(
		spanResolver{rec: rec, next: resolver.NewClient(resolverURL, outbound("resolver"))},
		proxy.WithHTTPClient(outbound("origin")))
	if s.proxyURL, err = listen("proxy", s.proxy); err != nil {
		s.close()
		return nil, err
	}
	s.proxy.Brownout = ctls["proxy"].Tier
	return s, nil
}

func (s *inproc) close() {
	for _, srv := range s.servers {
		_ = srv.Close() // loopback listeners of a finished measurement
	}
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
}

// publish signs and registers the workload's objects and returns their
// check data and Host header values.
func (s *inproc) publish(ctx context.Context, seed int64, spec *daemonSpec) ([]object, []string, error) {
	objs := make([]object, spec.names)
	hosts := make([]string, spec.names)
	buf := make([]byte, spec.size)
	for i := range objs {
		fillBody(buf, seed, i)
		objs[i] = describe(objectLabel(i), buf)
		n, err := s.origin.Publish(ctx, objs[i].label, http.DetectContentType(buf), buf)
		if err != nil {
			return nil, nil, err
		}
		hosts[i] = n.DNS()
	}
	return objs, hosts, nil
}

// daemonLayers is the in-process half of a traced daemon run: the spans,
// tracing on against off, and the direct calls.
func daemonLayers(ctx context.Context, e *env, spec *daemonSpec, rec *recorder, daemonRate float64, r *result) {
	s, err := newInproc(rec)
	if err != nil {
		r.fail("assembling the in-process stack: %v", err)
		return
	}
	defer s.close()
	objs, hosts, err := s.publish(ctx, e.seed, spec)
	if err != nil {
		r.fail("publishing in-process: %v", err)
		return
	}
	tl := &tally{}
	hc := newHTTPClient(spec.conns)
	defer hc.CloseIdleConnections()
	t := &target{hc: hc, proxyURL: s.proxyURL, hosts: hosts, objs: objs}

	// Fill, traced: these are misses on every workload, so every workload
	// yields samples of the resolve and fetch path.
	rec.on.Store(true)
	if err := warm(ctx, t, scan(0, 1, spec.names), spec.warm, tl); err != nil {
		r.fail("in-process warm-up: %v", err)
		return
	}
	t.wantHit = spec.wantHit
	fillEnd := rec.count()
	conns := workloadConns(t, spec, e.seed)
	dur := time.Duration(e.seconds * 0.12 * float64(time.Second))
	on := closedLoop(ctx, t, conns, dur, saturationSegments, tl)
	rec.on.Store(false)
	off := closedLoop(ctx, t, conns, dur, saturationSegments, tl)
	if _, failed, firstErr := tl.snapshot(); failed > 0 {
		r.fail("in-process stack: %d requests failed; first: %v", failed, firstErr)
		return
	}

	spans := rec.snapshot()
	all, steady := summarize(spans), summarize(spans[fillEnd:])
	self := func(m map[string]*spanStats, name string) float64 {
		if st := m[name]; st != nil {
			return st.SelfUs
		}
		return 0
	}
	mean := func(m map[string]*spanStats, name string) float64 {
		if st := m[name]; st != nil {
			return st.MeanUs
		}
		return 0
	}
	// Per proxy request, steady phase only.
	r.set("obs.instrument_us", self(steady, "proxy"+spanInstrument))
	r.set("overload.middleware_us", self(steady, "proxy"+spanAdmission))
	r.set("proxy.self_us", self(steady, "proxy"+spanHandler))
	// Per call, fill included: what one resolve or fetch costs whenever it
	// happens. Multiply by resolver.requests_per_req and
	// origin.requests_per_req for a workload's per-request share.
	r.set("proxy.resolve_wait_us", mean(all, spanResolve))
	r.set("proxy.fetch_wait_us", mean(all, spanHopPrefix+"origin"))
	r.set("resolver.handler_us", mean(all, "resolver"+spanInstrument))
	r.set("origin.handler_us", mean(all, "origin"+spanInstrument))
	hopR, hopO := all[spanHopPrefix+"resolver"], all[spanHopPrefix+"origin"]
	if hopR != nil && hopO != nil {
		r.set("httpx.hop_us", (hopR.totalSel+hopO.totalSel)/float64(hopR.Count+hopO.Count))
	}
	// The layers' shares must add up to the request: what the outermost
	// proxy span took against self times plus waits, steady phase.
	if outer := steady["proxy"+spanInstrument]; outer != nil && outer.Count > 0 {
		sum := outer.SelfUs + self(steady, "proxy"+spanAdmission) + self(steady, "proxy"+spanHandler)
		for _, child := range []string{spanResolve, spanHopPrefix + "origin"} {
			if st := steady[child]; st != nil {
				sum += st.totalUs / float64(outer.Count)
			}
		}
		if sum < 0.9*outer.MeanUs || sum > 1.1*outer.MeanUs {
			r.fail("spans account for %.1f us of a %.1f us proxy request", sum, outer.MeanUs)
		}
	}
	r.set("harness.tracing_overhead_pct", (off.rate/on.rate-1)*100)
	if daemonRate > 0 {
		r.set("harness.inproc_over_daemon_ratio", off.rate/daemonRate)
	}

	directCalls(ctx, e, s, spec, hosts, r)
}

// timeOp runs op until budget has passed (at least 64 times) and returns
// the mean nanoseconds and heap allocations per call.
func timeOp(budget time.Duration, op func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n < 64 || time.Since(start) < budget {
		for range 16 {
			op(n)
			n++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// directCalls times pure layer functions on the workload's own inputs:
// its names, its object size, its registry.
func directCalls(ctx context.Context, e *env, s *inproc, spec *daemonSpec, hosts []string, r *result) {
	budget := time.Duration(e.seconds * 0.015 * float64(time.Second))
	pub := s.principal.PublicKey()
	const sample = 32 // distinct objects cycled through, so one hot line does not flatter the numbers
	objs := make([]*origin.Object, 0, sample)
	for i := 0; i < spec.names && len(objs) < sample; i++ {
		if o, ok := s.origin.Object(objectLabel(i)); ok {
			objs = append(objs, o)
		}
	}
	if len(objs) == 0 {
		r.fail("direct calls: the in-process origin holds no object")
		return
	}
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	ns, _ := timeOp(budget, func(i int) {
		_, err := names.Parse(hosts[i%len(hosts)])
		check(err)
	})
	r.set("names.parse_ns", ns)

	ns, _ = timeOp(budget, func(i int) {
		o := objs[i%len(objs)]
		check(names.VerifyContent(o.Name, pub, o.Body, o.Signature))
	})
	r.set("names.verify_content_us", ns/1e3)

	headers := make([]http.Header, len(objs))
	for i, o := range objs {
		headers[i] = http.Header{}
		metalink.SetHeaders(headers[i], o.Meta)
	}
	ns, _ = timeOp(budget, func(i int) {
		_, err := metalink.VerifyResponse(headers[i%len(objs)], objs[i%len(objs)].Body)
		check(err)
	})
	r.set("metalink.verify_response_us", ns/1e3)

	// What the proxy does for every response, hit or miss.
	h := http.Header{}
	ns, _ = timeOp(budget, func(i int) {
		o := objs[i%len(objs)]
		metalink.SetHeaders(h, metalink.BuildFile(o.Name, pub, o.Body, o.Signature, nil))
	})
	r.set("metalink.build_headers_us", ns/1e3)

	ns, _ = timeOp(budget, func(i int) {
		_, err := s.registry.Resolve(ctx, objs[i%len(objs)].Name.String())
		check(err)
	})
	r.set("resolver.registry_resolve_ns", ns)

	q := overload.NewQueue(overload.Config{})
	ns, _ = timeOp(budget, func(int) {
		t, err := q.Acquire(ctx)
		check(err)
		if err == nil {
			t.Release()
		}
	})
	r.set("overload.acquire_release_ns", ns)

	for _, o := range objs { // make sure they are cached, whatever the workload evicted
		_, _, err := s.proxy.Get(ctx, o.Name)
		check(err)
	}
	ns, allocs := timeOp(budget, func(i int) {
		_, hit, err := s.proxy.Get(ctx, objs[i%len(objs)].Name)
		check(err)
		if err == nil && !hit {
			check(fmt.Errorf("proxy.Get(%s) missed a cached object", objs[i%len(objs)].Name))
		}
	})
	r.set("proxy.get_hit_ns", ns)
	r.set("proxy.get_hit_allocs", allocs)

	if failed != nil {
		r.fail("direct calls: %v", failed)
	}
}

// sampledStream times one Next call in 64 on the stream handed to
// RunStream and scales up: what share of the run the reader spent
// producing requests, at a cost of under a nanosecond per request.
type sampledStream struct {
	next  trace.Stream
	n     int
	spent time.Duration
}

func (s *sampledStream) Next(q *trace.Request) bool {
	s.n++
	if s.n&63 != 0 {
		return s.next.Next(q)
	}
	start := time.Now()
	ok := s.next.Next(q)
	s.spent += time.Since(start)
	return ok
}

func (s *sampledStream) Err() error { return s.next.Err() }

// simFixture is a topology with everything a run needs but the design.
type simFixture struct {
	net     *topo.Network
	weights []float64
	objects int
	base    sim.Config
}

// The simulator parameters icnsim uses by default (experiments.DefaultParams).
const (
	simArity, simDepth = 2, 5
	simBudget          = 0.05
	simObjectDivisor   = 360
)

func newSimFixture(name string, requests int, seed int64) (*simFixture, error) {
	tp := topo.ByName(name)
	if tp == nil {
		return nil, fmt.Errorf("no topology named %s", name)
	}
	f := &simFixture{net: topo.NewNetwork(tp, simArity, simDepth), weights: tp.PopulationWeights()}
	f.objects = max(requests/simObjectDivisor, 200)
	f.base = sim.Config{
		Network:        f.net,
		Objects:        f.objects,
		Origins:        trace.OriginAssignment(f.objects, f.weights, true, seed+1),
		BudgetFraction: simBudget,
		BudgetPolicy:   sim.BudgetProportional,
	}
	return f, nil
}

func (f *simFixture) stream(requests int, seed int64) trace.Stream {
	return trace.Synthetic(trace.StreamConfig{
		Requests: requests, Objects: f.objects, Alpha: zipfAlpha,
		PoPWeights: f.weights, Leaves: f.net.LeavesPerTree(), Seed: seed + 2,
	})
}

func designNamed(name string) (sim.Design, error) {
	for _, d := range sim.BaselineDesigns() {
		if d.Name == name {
			return d, nil
		}
	}
	return sim.Design{}, fmt.Errorf("no design named %s", name)
}

// simLayers measures the simulator's layers through its public entry
// points. Each probe is one span in the trace file.
func simLayers(e *env, spec *simSpec, rec *recorder, r *result) {
	if err := simProbes(e, spec, rec, r); err != nil {
		r.fail("simulator probes: %v", err)
	}
}

func simProbes(e *env, spec *simSpec, rec *recorder, r *result) error {
	perReq := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// The workload's own topology and design, through RunStream.
	var wf *simFixture
	var build []float64
	for range 3 {
		var err error
		d := rec.stage("topo.build", func() { wf, err = newSimFixture(spec.probeTopology, spec.probeRequests, e.seed) })
		if err != nil {
			return err
		}
		build = append(build, float64(d.Nanoseconds())/1e6)
	}
	r.set("topo.build_ms", median(build))

	n := spec.probeRequests
	gen := rec.stage("trace.gen", func() {
		var q trace.Request
		for s := wf.stream(n, e.seed); s.Next(&q); {
		}
	})
	r.set("trace.gen_ns_per_req", perReq(gen, n))

	design, err := designNamed(spec.probeDesign)
	if err != nil {
		return err
	}
	cfg := design.Apply(wf.base)
	var res sim.Result
	stream := func(workers int) (time.Duration, *sampledStream, error) {
		src := &sampledStream{next: wf.stream(n, e.seed)}
		var err error
		d := rec.stage(fmt.Sprintf("sim.stream.w%d", workers), func() {
			res, err = sim.RunStream(cfg, src, sim.StreamOptions{Workers: workers})
		})
		return d, src, err
	}
	w1, src, err := stream(1)
	if err != nil {
		return err
	}
	one := res
	r.set("sim.stream_ns_per_req_w1", perReq(w1, n))
	r.set("trace.wait_share", float64(src.spent.Nanoseconds())*64/float64(w1.Nanoseconds()))
	wN, _, err := stream(e.nproc)
	if err != nil {
		return err
	}
	if res.Requests != one.Requests || res.MeanLatency != one.MeanLatency || res.Stats != one.Stats ||
		res.Transfers != one.Transfers || res.Evictions != one.Evictions {
		return fmt.Errorf("RunStream differs between 1 and %d workers: %+v vs %+v", e.nproc, one.Stats, res.Stats)
	}
	r.set("sim.stream_ns_per_req_wN", perReq(wN, n))
	r.set("sim.worker_speedup", float64(w1)/float64(wN))
	served := float64(res.Requests)
	r.set("sim.served_leaf_share", float64(res.Stats.Leaf)/served)
	r.set("sim.served_origin_share", float64(res.Stats.Origin)/served)
	r.set("sim.evictions_per_req", float64(res.Evictions)/served)
	r.set("sim.transfers_per_req", float64(res.Transfers)/served)

	// Abilene, every workload: engine construction, the four routing and
	// placement combinations through RunConfig, and the streaming loop
	// against the sequential one on the same trace.
	const runReqs, streamReqs = 200_000, 100_000
	af, err := newSimFixture("Abilene", runReqs, e.seed)
	if err != nil {
		return err
	}
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: runReqs, Objects: af.objects, Alpha: zipfAlpha,
		PoPWeights: af.weights, Leaves: af.net.LeavesPerTree(), Seed: e.seed + 2,
	})
	nr := sim.ICNNR.Apply(af.base)
	var newMs []float64
	for range 3 {
		var err error
		d := rec.stage("sim.new", func() { _, err = sim.New(nr) })
		if err != nil {
			return err
		}
		newMs = append(newMs, float64(d.Nanoseconds())/1e6)
	}
	r.set("sim.new_ms", median(newMs))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, d := range []sim.Design{sim.EDGE, sim.EDGECoop, sim.ICNSP, sim.ICNNR} {
		var err error
		took := rec.stage("sim.run."+d.Name, func() { _, err = sim.RunConfig(d.Apply(af.base), reqs) })
		if err != nil {
			return err
		}
		r.set("sim.run_ns_per_req."+d.Name, perReq(took, runReqs))
	}
	runtime.ReadMemStats(&m1)
	r.set("sim.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/(4*runReqs))

	short := reqs[:streamReqs]
	var seq sim.Result
	seqTime := rec.stage("sim.run.ICN-NR.short", func() { seq, err = sim.RunConfig(nr, short) })
	if err != nil {
		return err
	}
	// RunStream at three epoch lengths: time per request is a + b/EpochLen,
	// where b is what one epoch barrier (the cross-shard exchange) costs.
	epochLens := []float64{1024, sim.DefaultEpochLen, 65536}
	var x, y []float64
	for _, el := range epochLens {
		var got sim.Result
		took := rec.stage(fmt.Sprintf("sim.stream.epoch%d", int(el)), func() {
			got, err = sim.RunStream(nr, trace.Requests(short), sim.StreamOptions{Workers: 1, EpochLen: int(el)})
		})
		if err != nil {
			return err
		}
		if got.Requests != seq.Requests {
			return fmt.Errorf("RunStream served %d requests, RunConfig %d", got.Requests, seq.Requests)
		}
		x, y = append(x, 1/el), append(y, perReq(took, streamReqs))
	}
	r.set("sim.stream_over_run_ratio.ICN-NR", y[1]/perReq(seqTime, streamReqs))
	r.set("sim.exchange_ns_per_req", slope(x, y)/sim.DefaultEpochLen)

	cachePolicies(e, rec, r)
	return nil
}

// slope is the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	n := float64(len(x))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// cachePolicies replays one Zipf stream (the benchmark's own sampler)
// through each replacement policy behind cache.Policy: lookup, insert on a
// miss. Capacity is 5% of the universe, as in the simulator.
func cachePolicies(e *env, rec *recorder, r *result) {
	const universe, capacity, ops = 100_000, 5_000, 400_000
	next := newPopularity(popSeed(e.seed), universe, zipfAlpha).sampler(0)
	stream := make([]int32, ops)
	for i := range stream {
		stream[i] = int32(next())
	}
	policies := []struct {
		name string
		p    cache.Policy
	}{
		{"lru", cache.NewIntLRU(capacity, nil)},
		{"arc", cache.NewARC(capacity, nil)},
		{"car", cache.NewCAR(capacity, nil)},
		{"tinylfu", cache.NewTinyLFULRU(capacity, nil)},
	}
	for _, pol := range policies {
		hits := 0
		took := rec.stage("cache."+pol.name, func() {
			for _, obj := range stream {
				if pol.p.Lookup(obj) {
					hits++
				} else {
					pol.p.Insert(obj)
				}
			}
		})
		r.set("cache."+pol.name+"_ns_per_op", float64(took.Nanoseconds())/ops)
		r.set("cache."+pol.name+"_hit_ratio", float64(hits)/ops)
	}
}
