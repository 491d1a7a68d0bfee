package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"idicn/internal/sim"
)

// FormatTable2 renders Table 2 rows as an aligned text table.
func FormatTable2(rows []Table2Row) string {
	return table("Location\tRequests\tZipf alpha (fit)\talpha (MLE)\tR^2\tpaper", rows, func(r Table2Row) string {
		return fmt.Sprintf("%s\t%d\t%.2f\t%.2f\t%.3f\t%.2f", r.Location, r.Requests, r.AlphaFit, r.AlphaMLE, r.R2, r.PaperAlpha)
	})
}

// FormatFigure2 renders the Figure 2 level fractions.
func FormatFigure2(rows []Figure2Row) string {
	header := "alpha"
	if len(rows) > 0 {
		header += levelColumns(len(rows[0].Fractions) + 1)
	}
	return table(header+"\t(last level = origin)", rows, func(r Figure2Row) string {
		return fmt.Sprintf("%.1f", r.Alpha) + cells(r.Fractions) + "\t"
	})
}

// FormatFigure renders Figure 6/7 rows grouped by topology, one line per
// design with the three improvement percentages.
func FormatFigure(rows []FigureRow) string {
	return table("Topology\tDesign\tLatency%\tCongestion%\tOriginLoad%", rows, func(r FigureRow) string {
		return r.Topology + "\t" + r.Design + impCells(r.Imp)
	})
}

// FormatSweep renders a numeric knob sweep (Figure 8 and the ablations) by
// x position, under a caller-supplied x-axis label.
func FormatSweep(xLabel string, points []SweepRow) string {
	return table(xLabel+"\tDelayGap%\tCongestionGap%\tOriginGap%", points, func(r SweepRow) string {
		return fmt.Sprintf("%g", r.X) + impCells(r.Gap)
	})
}

// FormatTable3 renders the trace-versus-synthetic validation.
func FormatTable3(rows []Table3Row) string {
	return table("Topology\tTrace\tSynthetic\tDifference", rows, func(r Table3Row) string {
		return fmt.Sprintf("%s\t%.2f\t%.2f\t%.2f", r.Topology, r.TraceGap, r.SynthGap, r.Difference)
	})
}

// FormatTable4 renders the arity sweep.
func FormatTable4(rows []Table4Row) string {
	return table("Arity\tDepth\tLatency gain%\tCongestion gain%\tOrigin load%", rows, func(r Table4Row) string {
		return fmt.Sprintf("%d\t%d\t%.2f\t%.2f\t%.2f", r.Arity, r.Depth, r.LatencyGain, r.CongestionGain, r.OriginGain)
	})
}

// FormatNamedGaps renders a sweep by row name: the §5.1 variant lists,
// Figure 9's steps and Figure 10's EDGE variants.
func FormatNamedGaps(title string, rows []SweepRow) string {
	return table(title+"\tLatencyGap%\tCongestionGap%\tOriginGap%", rows, func(r SweepRow) string {
		return r.Name + impCells(r.Gap)
	})
}

// FormatFigure1 renders a downsampled rank/frequency listing per location.
func FormatFigure1(series map[string][]int64, points int) string {
	var b strings.Builder
	names := make([]string, 0, len(series))
	// Order-insensitive: the keys are collected and sorted before any output.
	//icnvet:ignore determinism
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rf := series[name]
		fmt.Fprintf(&b, "%s: %d distinct objects; rank->count samples:", name, len(rf))
		step := len(rf) / points
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(rf); i += step {
			fmt.Fprintf(&b, " %d:%d", i+1, rf[i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// table renders a header and one line per row, cells separated by tabs,
// as an aligned text table.
func table[T any](header string, rows []T, line func(T) string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintln(w, line(r))
	}
	// A strings.Builder cannot fail, so a flush error can only mean a
	// programming bug: surface it instead of dropping it.
	if err := w.Flush(); err != nil {
		panic("experiments: tabwriter flush: " + err.Error())
	}
	return b.String()
}

// impCells renders the three metrics of an improvement or gap as cells.
func impCells(imp sim.Improvement) string {
	return fmt.Sprintf("\t%.2f\t%.2f\t%.2f", imp.Latency, imp.Congestion, imp.OriginLoad)
}

// cells renders level fractions as cells.
func cells(fractions []float64) string {
	var b strings.Builder
	for _, f := range fractions {
		fmt.Fprintf(&b, "\t%.3f", f)
	}
	return b.String()
}

// levelColumns is the header cells L1 .. L<levels-1>.
func levelColumns(levels int) string {
	var b strings.Builder
	for l := 1; l < levels; l++ {
		fmt.Fprintf(&b, "\tL%d", l)
	}
	return b.String()
}

// FormatDegradation renders the failure-degradation curve.
func FormatDegradation(rows []DegradationRow) string {
	return table("Design\tFailed caches\tResolver\tLatency%\tCongestion%\tOriginLoad%\tRetained%", rows, func(r DegradationRow) string {
		res := "up"
		if r.ResolverDown {
			res = "down"
		}
		return fmt.Sprintf("%s\t%.2f\t%s%s\t%.1f", r.Design, r.FailFraction, res, impCells(r.Imp), r.RetainedLatency)
	})
}
