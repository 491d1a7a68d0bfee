package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// simRun is one finished `icnsim` child, seen from outside.
type simRun struct {
	wall     time.Duration // launch -> exit
	reported time.Duration // the run time the program printed about itself
	cpu      time.Duration // user+system, from the child's rusage
	peakMiB  float64       // ru_maxrss
	block    string        // stdout with every timing-dependent line removed
	requests int64         // stream runs: the "requests:" line; 0 otherwise
	ttfo     time.Duration // launch -> first stdout byte
}

// firstByteWriter collects a stream and notes when its first byte came.
// The buffer is a field, not embedded: io.Copy would otherwise find
// bytes.Buffer's ReadFrom and never call Write.
type firstByteWriter struct {
	buf bytes.Buffer
	at  time.Time
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.at.IsZero() && len(p) > 0 {
		w.at = time.Now()
	}
	return w.buf.Write(p)
}

// runSim executes bin with args to completion.
func runSim(ctx context.Context, bin string, args ...string) (simRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout firstByteWriter
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := simRun{wall: time.Since(start)}
	if err != nil {
		return r, fmt.Errorf("icnsim %s: %w: %s", strings.Join(args, " "), err, firstFatalLine(stderr.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.peakMiB = float64(ru.Maxrss) / 1024
	}
	r.ttfo = stdout.at.Sub(start)
	r.block, r.reported, r.requests, err = parseSimOutput(stdout.buf.String())
	return r, err
}

var (
	// "(2.092s, scale=0.06)": the footer of an -exp table.
	expFooter = regexp.MustCompile(`^\((\S+), scale=\S+\)$`)
	// ", 2 workers" at the end of a stream run's header line.
	workersSuffix = regexp.MustCompile(`, \d+ workers$`)
)

// parseSimOutput splits icnsim's stdout into the result block — every line
// that must be identical between two runs of the same configuration — and
// the timing the program reports about itself. Lines that depend on the
// clock, the machine or the worker count are dropped from the block
// ("wall time:", "throughput:", "peak RSS:", the "(1.2s, scale=...)"
// footer) or normalised (the worker count in the stream header).
func parseSimOutput(out string) (block string, reported time.Duration, requests int64, err error) {
	var b strings.Builder
	timed := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "throughput:"), strings.HasPrefix(line, "peak RSS:"):
			continue
		case strings.HasPrefix(line, "wall time:"):
			d, perr := time.ParseDuration(strings.TrimSpace(strings.TrimPrefix(line, "wall time:")))
			if perr != nil {
				return "", 0, 0, fmt.Errorf("icnsim wall time line %q: %w", line, perr)
			}
			reported += d
			timed = true
			continue
		case strings.HasPrefix(line, "requests:"):
			n, perr := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "requests:")), 10, 64)
			if perr != nil {
				return "", 0, 0, fmt.Errorf("icnsim requests line %q: %w", line, perr)
			}
			requests += n
		}
		if m := expFooter.FindStringSubmatch(line); m != nil {
			d, perr := time.ParseDuration(m[1])
			if perr != nil {
				return "", 0, 0, fmt.Errorf("icnsim footer %q: %w", line, perr)
			}
			reported += d
			timed = true
			continue
		}
		b.WriteString(workersSuffix.ReplaceAllString(line, ""))
		b.WriteByte('\n')
	}
	if !timed {
		return "", 0, 0, errors.New("icnsim printed no run time (no \"wall time:\" line, no \"(…s, scale=…)\" footer)")
	}
	return strings.TrimRight(b.String(), "\n") + "\n", reported, requests, nil
}
