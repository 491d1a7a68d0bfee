package experiments

import (
	"fmt"
	"os"

	"idicn/internal/sim"
	"idicn/internal/trace"
)

// IsBinaryTrace sniffs whether path holds a compact binary trace (as
// written by tracegen -format binary) rather than a text request log.
func IsBinaryTrace(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	magic := make([]byte, len(trace.BinaryMagic))
	if _, err := f.Read(magic); err != nil {
		return false
	}
	return string(magic) == trace.BinaryMagic
}

// StreamDesigns runs the five representative designs plus the no-caching
// baseline on a recorded binary trace, streaming it from disk once per run
// through the sharded runner — the trace is never materialized, so its
// length is bounded by disk, not RAM. The trace's header fixes the object
// universe and must match the configured topology's extents.
func StreamDesigns(p Params, path string) ([]FigureRow, error) {
	tp := p.sweepTopology()
	net, _, _ := p.buildNet(tp)

	meta, err := readBinaryMeta(path)
	if err != nil {
		return nil, err
	}
	if meta.PoPs != net.PoPs() || meta.Leaves != net.LeavesPerTree() {
		return nil, fmt.Errorf("experiments: trace %s was recorded for %d PoPs x %d leaves, topology has %d x %d",
			path, meta.PoPs, meta.Leaves, net.PoPs(), net.LeavesPerTree())
	}

	cfg := p.baseConfig(tp, net, meta.Objects)
	opt := sim.StreamOptions{Workers: p.Workers, Observer: p.Observer}

	runOne := func(c sim.Config) (sim.Result, error) {
		f, err := os.Open(path)
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: %w", err)
		}
		defer f.Close()
		br, err := trace.NewBinaryReader(f)
		if err != nil {
			return sim.Result{}, err
		}
		return sim.RunStream(c, br, opt)
	}

	base, err := runOne(sim.BaselineConfig(cfg))
	if err != nil {
		return nil, err
	}
	designs := sim.BaselineDesigns()
	rows := make([]FigureRow, 0, len(designs))
	for _, d := range designs {
		res, err := runOne(d.Apply(cfg))
		if err != nil {
			return nil, err
		}
		rows = append(rows, FigureRow{Topology: tp.Name, Design: d.Name, Imp: sim.Improvements(base, res)})
	}
	return rows, nil
}

func readBinaryMeta(path string) (trace.BinaryMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.BinaryMeta{}, fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	br, err := trace.NewBinaryReader(f)
	if err != nil {
		return trace.BinaryMeta{}, err
	}
	return br.Meta(), nil
}
