package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
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
