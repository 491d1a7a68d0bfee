package main

// daemonSpec describes a workload against `idicnd`: what is published and
// how it is asked for.
type daemonSpec struct {
	names int  // objects published
	size  int  // bytes per object
	scan  bool // cyclic scan over all names (every request misses); else Zipf(1.04)
	conns int  // closed-loop callers and open-loop connections
	// warm is the number of sequential warm-up requests: for the hit
	// workloads one scan over every name, so the timed phases see a full
	// cache; for the miss workload enough to settle connections and the
	// daemon's admission limiter.
	warm    int
	wantHit bool
	// pacedRate is the open-loop phase's fixed rate: about a third of the
	// closed-loop rate this workload reached on the seed commit, two
	// significant digits, then frozen. Changing it changes what the latency
	// metrics mean, so it changes only in a benchmark PR.
	pacedRate float64
}

// simSpec describes a workload against `icnsim`.
type simSpec struct {
	args []string // everything but -seed and -workers
	// requests is the number of simulated requests one child serves.
	requests int64
	// probe picks what the traced run's RunStream probes simulate.
	probeTopology, probeDesign string
	probeRequests              int
}

type workload struct {
	name   string
	daemon *daemonSpec
	sim    *simSpec
}

const zipfAlpha = 1.04

// workloads is the fixed set. Sizes are the issue's, scaled down uniformly
// so that one run (set-up repeated, ten measured seconds, checks) fits the
// driver's budget of roughly 25 s per run on a 2-core box.
func workloads(nproc int) []workload {
	c := min(nproc, 2)
	return []workload{
		{name: "daemon_hit", daemon: &daemonSpec{
			names: 2048, size: 1 << 10, conns: c, warm: 2048, wantHit: true, pacedRate: 3000}},
		{name: "daemon_hit_large", daemon: &daemonSpec{
			names: 256, size: 256 << 10, conns: c, warm: 256, wantHit: true, pacedRate: 700}},
		{name: "daemon_miss", daemon: &daemonSpec{
			// One connection: two concurrent misses crash the seed's origin
			// (see README, "origin race"); the canary in the traced run
			// reports when that is fixed.
			names: 6144, size: 8 << 10, scan: true, conns: 1, warm: 512, pacedRate: 500}},
		{name: "sim_fig6", sim: &simSpec{
			args:          []string{"-exp", "fig6", "-scale", "0.04"},
			requests:      48 * 72000, // 8 topologies x (5 designs + baseline) x 1.8M*scale
			probeTopology: "Abilene", probeDesign: "ICN-SP", probeRequests: 400_000}},
		{name: "sim_edge_stream", sim: &simSpec{
			args:          []string{"-stream", "4000000", "-stream-design", "EDGE", "-sweep-topology", "ATT"},
			requests:      4_000_000,
			probeTopology: "ATT", probeDesign: "EDGE", probeRequests: 1_000_000}},
		{name: "sim_nr_stream", sim: &simSpec{
			args:          []string{"-stream", "250000", "-stream-design", "ICN-NR", "-sweep-topology", "Geant"},
			requests:      250_000,
			probeTopology: "Geant", probeDesign: "ICN-NR", probeRequests: 100_000}},
	}
}
