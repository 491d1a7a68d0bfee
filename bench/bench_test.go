package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("median(5,1,4) = %g, want 4", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
}

// One stalled segment must cost one segment, not the whole rate.
func TestSegmentsMedianRate(t *testing.T) {
	s := newSegments(5, 10) // five segments of 2 s
	for seg, n := range []int{200, 200, 10, 200, 200} {
		for i := range n {
			s.add(float64(seg)*2 + 2*float64(i)/float64(n))
		}
	}
	s.add(10.5) // completed after the phase ended: no segment's
	s.add(-1)
	if got := s.medianRate(); got != 100 {
		t.Errorf("median rate = %g, want 100/s", got)
	}
}

func TestScheduleAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := &schedule{start: start, interval: 250 * time.Microsecond, n: 3}
	for i := range 3 {
		idx, due, ok := s.claim()
		if !ok || idx != i || due.Sub(start) != time.Duration(i)*250*time.Microsecond {
			t.Fatalf("claim %d: index %d, due %v after start, ok %v", i, idx, due.Sub(start), ok)
		}
	}
	if _, _, ok := s.claim(); ok {
		t.Error("claimed a fourth request from a schedule of three")
	}
	if left := s.unclaimed(); left != 0 {
		t.Errorf("unclaimed = %d, want 0", left)
	}
	s2 := &schedule{start: start, interval: time.Millisecond, n: 10}
	s2.claim()
	if left := s2.unclaimed(); left != 9 {
		t.Errorf("unclaimed = %d, want 9", left)
	}
	due := start.Add(time.Millisecond)
	if got := lateness(due, due.Add(40*time.Microsecond)); got != 40*time.Microsecond {
		t.Errorf("lateness = %v, want 40us", got)
	}
	if got := lateness(due, due.Add(-time.Microsecond)); got != 0 {
		t.Errorf("a request sent early is %v late, want 0", got)
	}
}

// A disturbance confined to one window must not set the reported tail.
func TestWindowQuantile(t *testing.T) {
	p := pacedResult{n: 500}
	for i := range 500 {
		v := 100.0
		if i >= 100 && i < 110 { // ten slow requests, all in the second window
			v = 5000
		}
		p.samples = append(p.samples, sample{idx: i, latency: v})
	}
	if got := p.quantile(latencyOf, 0.99); got != 5000 {
		t.Errorf("pooled p99 = %g, want 5000", got)
	}
	if got := p.windowQuantile(latencyOf, 0.99, 5); got != 100 {
		t.Errorf("median of window p99s = %g, want 100", got)
	}
	if got := p.windowQuantile(latencyOf, 0.50, 5); got != 100 {
		t.Errorf("median of window p50s = %g, want 100", got)
	}
}

func TestParseMetrics(t *testing.T) {
	page := `proxy_requests_total 12
proxy_request_seconds_count 12
proxy_request_seconds_sum 0.00123
proxy_request_seconds_bucket{le="0.0001"} 3
proxy_request_seconds_bucket{le="+Inf"} 12
proxy_overload_limit 64
`
	m, err := parseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"proxy_requests_total": 12, "proxy_request_seconds_count": 12,
		"proxy_request_seconds_sum": 0.00123, "proxy_overload_limit": 64,
	}
	if len(m) != len(want) {
		t.Errorf("parsed %d metrics, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	if _, err := parseMetrics(strings.NewReader("x notanumber\n")); err == nil {
		t.Error("a non-numeric value parsed without error")
	}
}

func TestDaemonStartupLines(t *testing.T) {
	var u daemonURLs
	lines := []string{
		"resolver    http://127.0.0.1:35975",
		"origin      http://127.0.0.1:35061 (publisher 3cnc)",
		"edge proxy  http://127.0.0.1:42349 (PAC at http://127.0.0.1:42349/wpad.dat)",
		"debug       http://127.0.0.1:33405/debug/metrics",
		`published   http://o00209.3cnc.idicn.org/  (file label "o00209")`,
		"",
	}
	for _, l := range lines {
		if u.parseLine(l) {
			t.Errorf("line %q taken for the serving line", l)
		}
	}
	if !u.parseLine("serving; ctrl-c or SIGTERM to drain and exit") {
		t.Error("serving line not recognised")
	}
	want := daemonURLs{resolver: "http://127.0.0.1:35975", proxy: "http://127.0.0.1:42349", debug: "http://127.0.0.1:33405"}
	if u != want {
		t.Errorf("parsed %+v, want %+v", u, want)
	}
}

func TestFirstFatalLine(t *testing.T) {
	stderr := "icnsim: using 2 workers\nfatal error: concurrent map writes\n\ngoroutine 12 [running]:\n"
	if got := firstFatalLine(stderr); got != "fatal error: concurrent map writes" {
		t.Errorf("got %q", got)
	}
	if got := firstFatalLine("idicnd: bind: address in use\n"); got != "idicnd: bind: address in use" {
		t.Errorf("got %q", got)
	}
	if got := firstFatalLine(""); got != "(no stderr output)" {
		t.Errorf("got %q", got)
	}
}

func TestParseProc(t *testing.T) {
	stat := "4242 (idicnd (x) y) S 1 4242 4242 0 -1 4194304 900 0 0 0 150 50 0 0 20 0 9 0 100 1000 200 rest"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 2*time.Second {
		t.Errorf("cpu = %v, %v; want 2s (150+50 ticks)", cpu, err)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage stat line parsed")
	}
	mib, err := parseVmHWM("Name:\tidicnd\nVmHWM:\t   32768 kB\nVmRSS:\t 100 kB\n")
	if err != nil || mib != 32 {
		t.Errorf("VmHWM = %g MiB, %v; want 32", mib, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestParseSimOutputStream(t *testing.T) {
	out := func(workers, wall, tput string) string {
		return "== Sharded streaming run ==\n" +
			"topology Geant (22 PoPs, 32 leaves/tree), design ICN-NR, 400000 requests, 0 users, 1111 objects, " + workers + " workers\n" +
			"requests:     400000\n" +
			"wall time:    " + wall + "\n" +
			"throughput:   " + tput + " req/s\n" +
			"peak RSS:     32.5 MiB\n" +
			"mean latency: 1.9563\n" +
			"served:       leaf=228571 sibling=0 tree=122671 core=20595 origin=28163\n\n"
	}
	b1, rep, reqs, err := parseSimOutput(out("1", "2.489s", "160684"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != 2489*time.Millisecond || reqs != 400000 {
		t.Errorf("reported %v, requests %d", rep, reqs)
	}
	b2, _, _, err := parseSimOutput(out("2", "1.3s", "300000"))
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Errorf("blocks differ across worker counts and timings:\n%s\n%s", b1, b2)
	}
	for _, gone := range []string{"wall time", "throughput", "peak RSS", "workers"} {
		if strings.Contains(b1, gone) {
			t.Errorf("block still holds %q:\n%s", gone, b1)
		}
	}
	if !strings.Contains(b1, "mean latency: 1.9563") || !strings.Contains(b1, "origin=28163") {
		t.Errorf("block lost result lines:\n%s", b1)
	}
}

func TestParseSimOutputExperiment(t *testing.T) {
	out := "== Figure 6: improvements ==\nATT       EDGE       42.76     51.84        41.91\n(2.092s, scale=0.06)\n\n"
	block, rep, reqs, err := parseSimOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep != 2092*time.Millisecond || reqs != 0 {
		t.Errorf("reported %v, requests %d", rep, reqs)
	}
	if want := "== Figure 6: improvements ==\nATT       EDGE       42.76     51.84        41.91\n"; block != want {
		t.Errorf("block %q, want %q", block, want)
	}
	if _, _, _, err := parseSimOutput("no timing here\n"); err == nil {
		t.Error("output without a run time parsed")
	}
}

func TestContentIsSeeded(t *testing.T) {
	a, err := generateContent("", 7, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateContent("", 7, 8, 1000)
	c, _ := generateContent("", 8, 8, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("object %d differs between two generations at one seed", i)
		}
		if a[i].digest == c[i].digest {
			t.Errorf("object %d is the same at seeds 7 and 8", i)
		}
		if i > 0 && a[i].digest == a[0].digest {
			t.Errorf("objects 0 and %d are the same", i)
		}
	}
	dir := t.TempDir()
	d, err := generateContent(dir, 7, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(dir + "/" + d[1].label)
	if err != nil {
		t.Fatal(err)
	}
	if got := describe(d[1].label, body); got != a[1] {
		t.Error("the file written differs from the object described")
	}
}

func TestSamplers(t *testing.T) {
	p := newPopularity(3, 1000, zipfAlpha)
	a, b, other := p.sampler(0), newPopularity(3, 1000, zipfAlpha).sampler(0), p.sampler(1)
	counts := make([]int, 1000)
	same := 0
	for range 20000 {
		x := a()
		if x != b() {
			t.Fatal("same seed, same connection, different stream")
		}
		if x == other() {
			same++
		}
		counts[x]++
	}
	if same > 5000 {
		t.Errorf("two connections drew the same object %d times in 20000", same)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// Under Zipf(1.04) over 1000 objects the top object draws ~13%.
	if share := float64(counts[0]) / 20000; share < 0.10 || share > 0.17 {
		t.Errorf("most popular object drew %.3f of requests, want about 0.13", share)
	}

	s := scan(4, 2, 5)
	var got []int
	for range 6 {
		got = append(got, s())
	}
	if want := []int{4, 1, 3, 0, 2, 4}; !equalInts(got, want) {
		t.Errorf("scan(4,2,5) = %v, want %v", got, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Parent: 0, Name: "outer", Start: 0, End: 100_000},
		{Req: 1, ID: 2, Parent: 1, Name: "inner", Start: 10_000, End: 70_000},
		{Req: 1, ID: 3, Parent: 2, Name: "leaf", Start: 20_000, End: 30_000},
		{Req: 1, ID: 4, Parent: 2, Name: "leaf", Start: 40_000, End: 60_000},
	}
	s := summarize(spans)
	for name, want := range map[string][3]float64{ // count, mean us, self us
		"outer": {1, 100, 40}, "inner": {1, 60, 30}, "leaf": {2, 15, 15},
	} {
		got := s[name]
		if got == nil || float64(got.Count) != want[0] || got.MeanUs != want[1] || got.SelfUs != want[2] {
			t.Errorf("%s: %+v, want count/mean/self %v", name, got, want)
		}
	}
	ref := spanRef{req: 12, id: 34}
	if back, ok := parseSpanHeader(ref.header()); !ok || back != ref {
		t.Errorf("span header round trip: %+v, %v", back, ok)
	}
	if _, ok := parseSpanHeader("nonsense"); ok {
		t.Error("parsed a malformed span header")
	}
}

func TestSlope(t *testing.T) {
	if got := slope([]float64{1, 2, 3}, []float64{5, 7, 9}); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %g, want 2", got)
	}
}

// BENCHMARK.json is what the driver reads; metrics.go, workloads.go and
// agree.go are what the benchmark does. They must say the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var own []string
	for _, w := range workloads(2) {
		own = append(own, w.name)
	}
	if strings.Join(names, ",") != strings.Join(own, ",") {
		t.Errorf("workloads %v, benchmark has %v", names, own)
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			better := "higher"
			if d.lower {
				better = "lower"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s[%d]: %+v, metrics.go has %s %s %s", kind, i, g, d.name, d.unit, better)
			}
			if bounded && (g.Bound == nil || *g.Bound != bounds[d.name]) {
				t.Errorf("%s: bound in BENCHMARK.json differs from agree.go's %g", d.name, bounds[d.name])
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics, true)
	check("per_layer", spec.PerLayer, perLayerMetrics, false)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
}
