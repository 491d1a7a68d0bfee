package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idicn/internal/experiments"
	"idicn/internal/trace"
)

// Every registered experiment runs through the dispatcher at a tiny scale,
// trace-designs on a small request log; unknown ids and trace-designs
// without a log are refused.
func TestRunDispatch(t *testing.T) {
	p := experiments.DefaultParams(0.001)
	p.Depth = 2
	p.SweepTopology = "Abilene"
	if e := mustLookup(t, "trace-designs"); runExperiment(e, p) == nil {
		t.Error("trace-designs without -trace accepted")
	}
	p.TraceFile = writeLog(t)
	for _, e := range experiments.Registry {
		if err := runExperiment(mustLookup(t, e.ID), p); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
	for _, exp := range []string{"nonsense", "fig6,nonsense"} {
		if _, err := lookup(exp); err == nil || !strings.Contains(err.Error(), "fig6") {
			t.Errorf("-exp %s: got %v, want an error listing the registered ids", exp, err)
		}
	}
	all, err := lookup("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.Extra {
			t.Errorf("-exp all includes extra %s", e.ID)
		}
	}
}

func mustLookup(t *testing.T, id string) experiments.Experiment {
	t.Helper()
	es, err := lookup(id)
	if err != nil || len(es) != 1 || es[0].ID != id {
		t.Fatalf("lookup(%q) = %v, %v", id, es, err)
	}
	return es[0]
}

// writeLog writes a small Asia-model request log in tracegen's text format.
func writeLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "asia.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteLog(f, trace.Asia(0.003).Generate()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseFractions(t *testing.T) {
	got, err := parseFractions("0, 0.5,1")
	if err != nil || len(got) != 3 || got[1] != 0.5 {
		t.Errorf("parseFractions(0, 0.5,1) = %v, %v", got, err)
	}
	for _, bad := range []string{"NaN", "-0.1", "1.5", "0,nan", "x"} {
		if got, err := parseFractions(bad); err == nil {
			t.Errorf("parseFractions(%q) = %v, want an error", bad, got)
		}
	}
}

// -seeds below 2 is refused rather than silently replaced by a default.
func TestSeedsBelowTwoRejected(t *testing.T) {
	for _, n := range []string{"1", "0", "-3"} {
		err := icnsim([]string{"-exp", "variance", "-seeds", n, "-scale", "0.001", "-sweep-topology", "Abilene"})
		if err == nil || !strings.Contains(err.Error(), "-seeds") {
			t.Errorf("-seeds %s: got %v, want an error naming -seeds", n, err)
		}
	}
}

// A -stream run honours -metrics-json like an -exp run does.
func TestStreamWritesMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := icnsim([]string{"-stream", "20000", "-sweep-topology", "Abilene", "-metrics-json", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil || len(snap) == 0 {
		t.Fatalf("metrics snapshot %q: %v", data, err)
	}
}
