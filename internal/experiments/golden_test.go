package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/registry.<GOARCH>.txt from the current code")

// TestRegistryGolden pins every experiment's printed output: each Registry
// entry that `icnsim -exp all` runs, plus variance at 3 seeds, at a tiny
// warm workload. A refactor that claims to leave the artifacts unchanged
// must leave this file unchanged. The simulator's float sums are sensitive
// to fused multiply-add, so the file is per GOARCH; regenerate with
// `go test ./internal/experiments -run TestRegistryGolden -update`.
func TestRegistryGolden(t *testing.T) {
	path := filepath.Join("testdata", "registry."+runtime.GOARCH+".txt")
	p := DefaultParams(0.005)
	p.Depth = 3
	p.Objects = 500
	p.SweepTopology = "Abilene"
	p.VarianceSeeds = 3

	var b strings.Builder
	for _, e := range Registry {
		if e.Extra && e.ID != "variance" {
			continue
		}
		out, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString("== " + e.ID + " ==\n" + out + "\n")
	}
	got := b.String()

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		t.Skipf("no golden output for GOARCH %s (%s); generate it with -update on a trusted build", runtime.GOARCH, path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotBlocks, wantBlocks := strings.Split(got, "== "), strings.Split(string(want), "== ")
		for i := 0; i < len(gotBlocks) || i < len(wantBlocks); i++ {
			var g, w string
			if i < len(gotBlocks) {
				g = gotBlocks[i]
			}
			if i < len(wantBlocks) {
				w = wantBlocks[i]
			}
			if g != w {
				t.Errorf("output differs from %s:\ngot:\n== %s\nwant:\n== %s", path, g, w)
			}
		}
	}
}
