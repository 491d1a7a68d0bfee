// Package idicn is a from-scratch reproduction of "Less Pain, Most of the
// Gain: Incrementally Deployable ICN" (Fayazbakhsh et al., SIGCOMM 2013).
//
// The repository has two halves, mirroring the paper:
//
//   - A request-level caching simulator (internal/sim with substrates
//     internal/topo, internal/trace, internal/cache, internal/zipfian,
//     internal/treemodel) that evaluates the ICN design space — cache
//     placement x request routing — on query latency, link congestion, and
//     origin load, and regenerates every table and figure of the paper's
//     evaluation (experiments.Registry in internal/experiments, run by
//     cmd/icnsim and timed by BenchmarkExperiments in bench_test.go).
//
//   - idICN, the paper's incrementally deployable application-layer ICN
//     (internal/idicn/...): self-certifying names, a name resolution
//     system, a signing origin/reverse proxy, an authenticating edge proxy
//     with WPAD/PAC auto-configuration, Zeroconf-style ad hoc content
//     sharing, and mobility via dynamic re-registration plus HTTP range
//     resumption (cmd/idicnd).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-versus-measured results.
package idicn
