package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"idicn/internal/experiments"
	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

// runStreamScale executes one sharded streaming run at production scale:
// the workload is either a recorded binary trace (-trace) or a synthetic
// stream generated on the fly, so request count is unbounded by RAM. It
// prints the merged result summary plus throughput and peak-RSS figures —
// the numbers behind EXPERIMENTS.md's "Scale" section.
func runStreamScale(p experiments.Params, requests int64, users int, designName, traceFile string, epochLen int) error {
	design, ok := designByName(designName)
	if !ok {
		return fmt.Errorf("unknown design %q (want one of %s)", designName, designNames())
	}

	tp := p.CustomTopology
	if tp == nil {
		tp = topo.ByName(p.SweepTopology)
	}
	if tp == nil {
		tp = topo.ATT()
	}
	net := topo.NewNetwork(tp, p.Arity, p.Depth)
	objects := p.Objects
	if objects <= 0 {
		// Mirror the experiments' sizing rule: requests/ObjectDivisor, floored.
		div := p.ObjectDivisor
		if div <= 0 {
			div = 360
		}
		objects = int(requests / int64(div))
		if objects < 200 {
			objects = 200
		}
	}
	weights := tp.PopulationWeights()

	var src trace.Stream
	var f *os.File
	if traceFile != "" {
		var err error
		f, err = os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		br, err := trace.NewBinaryReader(f)
		if err != nil {
			return err
		}
		meta := br.Meta()
		if meta.PoPs != net.PoPs() || meta.Leaves != net.LeavesPerTree() {
			return fmt.Errorf("trace %s was recorded for %d PoPs x %d leaves, topology has %d x %d",
				traceFile, meta.PoPs, meta.Leaves, net.PoPs(), net.LeavesPerTree())
		}
		objects = meta.Objects
		requests = meta.Requests
		src = br
	} else {
		if requests > int64(int(^uint(0)>>1)) {
			return fmt.Errorf("request count %d overflows int", requests)
		}
		src = trace.Synthetic(trace.StreamConfig{
			Requests:         int(requests),
			Objects:          objects,
			Alpha:            p.Alpha,
			SpatialSkew:      p.SpatialSkew,
			PoPWeights:       weights,
			Leaves:           net.LeavesPerTree(),
			Seed:             p.Seed + 2,
			TemporalLocality: p.TemporalLocality,
			Users:            users,
		})
	}

	origins := trace.OriginAssignment(objects, weights, p.OriginProportional, p.Seed+1)
	cfg := design.Apply(sim.Config{
		Network:        net,
		Objects:        objects,
		Origins:        origins,
		BudgetFraction: p.BudgetFraction,
		BudgetPolicy:   p.BudgetPolicy,
		Policy:         p.Policy,
	})
	opt := sim.StreamOptions{Workers: p.Workers, EpochLen: epochLen, Observer: p.Observer}

	workers := opt.Workers
	if workers <= 0 {
		workers = sim.DefaultWorkers()
	}
	fmt.Printf("== Sharded streaming run ==\n")
	fmt.Printf("topology %s (%d PoPs, %d leaves/tree), design %s, %d requests, %d users, %d objects, %d workers\n",
		tp.Name, net.PoPs(), net.LeavesPerTree(), design.Name, requests, users, objects, workers)
	start := time.Now()
	res, err := sim.RunStream(cfg, src, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	reqPerSec := float64(res.Requests) / elapsed.Seconds()
	fmt.Printf("requests:     %d\n", res.Requests)
	fmt.Printf("wall time:    %s\n", elapsed.Round(time.Millisecond))
	fmt.Printf("throughput:   %.0f req/s\n", reqPerSec)
	if rss, ok := peakRSSBytes(); ok {
		fmt.Printf("peak RSS:     %.1f MiB\n", float64(rss)/(1<<20))
	}
	fmt.Printf("mean latency: %.4f\n", res.MeanLatency)
	fmt.Printf("max link:     %d\n", res.MaxLinkLoad)
	fmt.Printf("origin total: %d (max per PoP %d)\n", res.TotalOrigin, res.MaxOriginLoad)
	fmt.Printf("served:       leaf=%d sibling=%d tree=%d core=%d origin=%d\n\n",
		res.Stats.Leaf, res.Stats.Sibling, res.Stats.Tree, res.Stats.Core, res.Stats.Origin)
	return nil
}

func designByName(name string) (sim.Design, bool) {
	for _, d := range sim.BaselineDesigns() {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return sim.Design{}, false
}

func designNames() string {
	names := make([]string, 0, 5)
	for _, d := range sim.BaselineDesigns() {
		names = append(names, d.Name)
	}
	return strings.Join(names, ", ")
}

// peakRSSBytes reads the process's high-water resident set size (VmHWM)
// from /proc; ok is false on platforms without it.
func peakRSSBytes() (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}
