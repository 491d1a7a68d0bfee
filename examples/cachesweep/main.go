// Cachesweep: reproduce the paper's §5 sensitivity analysis in miniature —
// sweep the Zipf exponent, the cache budget, and the spatial skew, printing
// the ICN-NR over EDGE gap at each point, plus the §2.2 analytical tree
// model and optimal budget split.
//
//	go run ./examples/cachesweep
package main

import (
	"fmt"
	"log"

	"idicn/internal/experiments"
	"idicn/internal/treemodel"
)

func main() {
	// A small, warm configuration that runs in seconds: the Abilene
	// topology with shallow trees (see EXPERIMENTS.md on warmth).
	p := experiments.DefaultParams(0.02)
	p.Depth = 3
	p.Objects = 2000
	p.SweepTopology = "Abilene"

	fmt.Println("ICN-NR over EDGE gap (percentage points), Abilene:")

	for _, s := range []struct {
		title string
		knob  experiments.Knob
	}{
		{"by Zipf alpha", experiments.AlphaKnob(0.4, 0.7, 1.0, 1.3, 1.6)},
		{"by per-router cache budget", experiments.BudgetKnob(0.001, 0.01, 0.05, 0.2, 1)},
		{"by spatial skew", experiments.SkewKnob(0, 0.5, 1)},
	} {
		rows, err := experiments.Sweep(p, s.knob)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", s.title)
		fmt.Print(experiments.FormatSweep(s.knob.Label, rows))
	}

	// The analytical model behind Figure 2: where requests are served on a
	// 6-level binary tree under optimal placement.
	fmt.Println("\nanalytical tree model (Figure 2):")
	fmt.Print(experiments.FormatFigure2(experiments.Figure2()))

	// And the budget-split extension: the optimum concentrates capacity at
	// the leaves.
	cfg := treemodel.Config{Arity: 2, Levels: 6, Objects: 10000, Alpha: 1.0}
	split := treemodel.OptimalBudgetSplit(cfg, 5000)
	fmt.Println("\noptimal budget split across levels (leaf first):")
	for i, share := range split.BudgetShare {
		fmt.Printf("  level %d: %4.1f%% of budget (%d slots/node)\n", i+1, share*100, split.PerNodeSlots[i])
	}
	fmt.Printf("  expected hops: %.2f\n", split.ExpectedHops)
}
