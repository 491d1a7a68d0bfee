// Pins the exact threshold of the Makefile's serve-path allocation gate
// (ALLOC_GATE_AWK, applied by `make bench-smoke` and `make alloc-gate`).
// `go test -benchmem` prints allocs/op as a rounded integer, so the gate
// must fail any BenchmarkServeRequest line at or above 0.5 allocs/op —
// anything that rounds to a nonzero integer — and pass everything below.
package idicn_test

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// runAllocGate pipes benchmark-transcript lines through `make alloc-gate`
// and reports whether the gate passed along with its combined output.
func runAllocGate(t *testing.T, input string) (pass bool, output string) {
	t.Helper()
	cmd := exec.Command("make", "--no-print-directory", "alloc-gate")
	cmd.Stdin = strings.NewReader(input)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	if err == nil {
		return true, buf.String()
	}
	if _, ok := err.(*exec.ExitError); ok {
		return false, buf.String()
	}
	t.Fatalf("make alloc-gate: %v\n%s", err, buf.String())
	return false, ""
}

func TestAllocGateThreshold(t *testing.T) {
	if _, err := exec.LookPath("make"); err != nil {
		t.Skip("make not on PATH")
	}
	line := func(allocs string) string {
		return "BenchmarkServeRequest/EDGE-8\t1000\t250.0 ns/op\t0 B/op\t" + allocs + " allocs/op\n"
	}
	cases := []struct {
		name  string
		input string
		pass  bool
	}{
		{"zero allocs passes", line("0"), true},
		{"fractional below threshold passes", line("0.4900"), true},
		{"exactly 0.5 fails", line("0.5000"), false},
		{"one alloc fails", line("1"), false},
		{"many allocs fail", line("17"), false},
		{"other benchmarks exempt",
			"BenchmarkExperiments/fig6-8\t10\t1e8 ns/op\t5e6 B/op\t90000 allocs/op\n", true},
		{"observed variant exempt",
			"BenchmarkServeRequestObserved/EDGE-8\t1000\t400.0 ns/op\t8 B/op\t2 allocs/op\n", true},
		{"empty transcript passes", "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pass, out := runAllocGate(t, tc.input)
			if pass != tc.pass {
				t.Fatalf("gate pass = %v, want %v\ninput: %q\noutput: %s", pass, tc.pass, tc.input, out)
			}
			if !tc.pass && !strings.Contains(out, "alloc-gate: FAIL") {
				t.Fatalf("failing gate did not print diagnostic; output: %s", out)
			}
		})
	}
}
