package main

import (
	"context"
	"fmt"
	"math"
)

// bounds is how far each end-to-end metric may worsen, as a share of the
// parent's median, before a change counts as a regression. BENCHMARK.json
// repeats them for the driver.
var bounds = map[string]float64{
	"setup_s":        0.25,
	"req_per_s":      0.20,
	"cpu_us_per_req": 0.20,
	"peak_rss_mb":    0.25,
	"latency_p50_us": 0.25,
	"latency_p95_us": 0.25,
	"ttfb_p50_us":    0.25,
}

// runAgree measures the end-to-end set twice and fails if the second run
// of any metric is worse than the first by more than the metric's bound:
// the benchmark checking that it can tell a change from its own noise.
func runAgree(ctx context.Context, e *env, chosen []workload) int {
	ok := true
	fmt.Printf("%-18s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "spread", "bound")
	for _, w := range chosen {
		var runs [2]*result
		for i := range runs {
			runs[i] = &result{Correct: true, Metrics: map[string]metric{}, workload: w.name}
			endToEnd(ctx, e, w, runs[i])
			if !runs[i].Correct || runs[i].Failed > 0 {
				report(runs[i])
				return 1
			}
		}
		for _, d := range endToEndMetrics {
			a, b := runs[0].Metrics[d.name].Value, runs[1].Metrics[d.name].Value
			worse := (b - a) / a
			if !d.lower {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > bounds[d.name] {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-18s %-16s %14.6g %14.6g %7.1f%% %5.0f%%%s\n",
				w.name, d.name, a, b, math.Abs(b-a)/a*100, bounds[d.name]*100, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
