package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"

	"idicn/internal/sim"
	"idicn/internal/trace"
)

// TraceDrivenDesigns runs the five representative designs on a request log
// file (as written by cmd/tracegen, or converted from a real CDN log into
// that format), assigning requests to PoPs proportional to population as
// §4.2 does with the Asia trace. The object universe is the log's own.
func TraceDrivenDesigns(p Params, logPath string) ([]FigureRow, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	records, err := trace.ReadLog(f)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("experiments: %s: empty log", logPath)
	}
	objects := 0
	for _, rec := range records {
		if int(rec.Object) >= objects {
			objects = int(rec.Object) + 1
		}
	}

	tp := p.sweepTopology()
	net, _, _ := p.buildNet(tp)
	weights := tp.PopulationWeights()
	reqs := trace.FromRecords(records, weights, net.LeavesPerTree(), p.Seed+3)
	results, err := sim.Compare(p.baseConfig(tp, net, objects), sim.BaselineDesigns(), reqs, p.simOptions())
	if err != nil {
		return nil, err
	}
	rows := make([]FigureRow, 0, len(results))
	for _, r := range results {
		rows = append(rows, FigureRow{Topology: tp.Name, Design: r.Design.Name, Imp: r.Improvement})
	}
	return rows, nil
}

// VarianceRow summarizes the NR-over-EDGE gap across independent seeds.
type VarianceRow struct {
	Metric string
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// SeedVariance re-runs the headline gap measurement under n >= 2
// independent seeds (workload and origin assignment both re-drawn) and
// reports the spread, quantifying how much of any single number is noise.
func SeedVariance(p Params, n int) ([]VarianceRow, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: seed variance needs at least 2 seeds, got %d", n)
	}
	k := Knob{Label: "seed"}
	for i := range n {
		k.Points = append(k.Points, KnobPoint{Name: strconv.Itoa(i), X: float64(i), Params: func(q *Params) { q.Seed += int64(i) * 1000003 }})
	}
	gaps, err := Sweep(p, k)
	if err != nil {
		return nil, err
	}
	pick := func(name string, get func(sim.Improvement) float64) VarianceRow {
		row := VarianceRow{Metric: name, Min: get(gaps[0].Gap), Max: get(gaps[0].Gap)}
		var sum, sumSq float64
		for _, g := range gaps {
			v := get(g.Gap)
			sum += v
			sumSq += v * v
			if v < row.Min {
				row.Min = v
			}
			if v > row.Max {
				row.Max = v
			}
		}
		mean := sum / float64(len(gaps))
		variance := sumSq/float64(len(gaps)) - mean*mean
		if variance < 0 {
			variance = 0
		}
		row.Mean = mean
		row.StdDev = math.Sqrt(variance)
		return row
	}
	return []VarianceRow{
		pick("latency", func(g sim.Improvement) float64 { return g.Latency }),
		pick("congestion", func(g sim.Improvement) float64 { return g.Congestion }),
		pick("origin-load", func(g sim.Improvement) float64 { return g.OriginLoad }),
	}, nil
}

// FormatVariance renders the seed-variance summary.
func FormatVariance(rows []VarianceRow) string {
	return table("Metric\tMean gap%\tStdDev\tMin\tMax", rows, func(r VarianceRow) string {
		return fmt.Sprintf("%s\t%.2f\t%.2f\t%.2f\t%.2f", r.Metric, r.Mean, r.StdDev, r.Min, r.Max)
	})
}
