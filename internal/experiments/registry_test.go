package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

func TestRegistryEntries(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.ID == "" || seen[e.ID] {
			t.Errorf("id %q empty or registered twice", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: missing title or Run", e.ID)
		}
	}
}

// DESIGN.md's "Experiment index" table must name exactly the registered ids.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(data), "## Experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## Experiment index\" section")
	}
	var documented []string
	for _, line := range strings.Split(index, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			documented = append(documented, strings.Trim(strings.TrimSpace(cells[1]), "`"))
		}
	}
	var registered []string
	for _, e := range Registry {
		registered = append(registered, e.ID)
	}
	slices.Sort(documented)
	slices.Sort(registered)
	if !slices.Equal(documented, registered) {
		t.Errorf("DESIGN.md experiment index ids\n%v\nregistered ids\n%v", documented, registered)
	}
}

// TestPolicyReachesEveryBaseConfig: -policy sets the cache policy of every
// experiment, including the ones that build their config from an input file
// (trace-designs, on a text log and on a binary trace), from the Asia model
// (table3) or once per sweep point (ablation-locality). Each must print
// something different under LFU than under LRU.
func TestPolicyReachesEveryBaseConfig(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "asia.log")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteLog(f, trace.Asia(0.003).Generate()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p := testParams()
	cfg, reqs := p.Workload(topo.ByName(p.SweepTopology))
	binPath := filepath.Join(dir, "abilene.bin")
	if f, err = os.Create(binPath); err != nil {
		t.Fatal(err)
	}
	meta := trace.BinaryMeta{PoPs: cfg.Network.PoPs(), Leaves: cfg.Network.LeavesPerTree(), Objects: cfg.Objects, Requests: int64(len(reqs))}
	if err := trace.WriteBinaryTrace(f, meta, trace.Requests(reqs)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	byID := map[string]Experiment{}
	for _, e := range Registry {
		byID[e.ID] = e
	}
	for _, c := range []struct{ name, id, traceFile string }{
		{"trace-designs/log", "trace-designs", logPath},
		{"trace-designs/binary", "trace-designs", binPath},
		{"table3", "table3", ""},
		{"ablation-locality", "ablation-locality", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := map[sim.CachePolicy]string{}
			for _, pol := range []sim.CachePolicy{sim.PolicyLRU, sim.PolicyLFU} {
				pc := testParams()
				pc.TraceFile, pc.Policy = c.traceFile, pol
				s, err := byID[c.id].Run(pc)
				if err != nil {
					t.Fatal(err)
				}
				out[pol] = s
			}
			if out[sim.PolicyLRU] == out[sim.PolicyLFU] {
				t.Fatalf("%s prints the same under LFU as under LRU:\n%s", c.id, out[sim.PolicyLRU])
			}
		})
	}
}
