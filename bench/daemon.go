package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// nameDomain is the DNS suffix under which idICN names are requested
// (label.keyhash.idicn.org): protocol, not implementation.
const nameDomain = "idicn.org"

// daemon is one running `idicnd -content <dir>`, known only through what a
// user of the binary sees: the URLs it prints, its HTTP ports, its exit.
type daemon struct {
	cmd *exec.Cmd
	pid int

	resolverURL string
	proxyURL    string
	debugURL    string

	// dead is closed once the process has exited, for whatever reason.
	dead chan struct{}
	wg   sync.WaitGroup

	mu sync.Mutex
	//icn:guardedby mu
	stderr []byte // first 64 KiB, enough to hold a Go fatal-error header
}

// daemonURLs picks the service URLs out of the daemon's start-up lines
// ("resolver    http://127.0.0.1:35975", "edge proxy  http://... (PAC at
// ...)", "debug       http://.../debug/metrics").
type daemonURLs struct{ resolver, proxy, debug string }

// parseLine folds one stdout line into u and reports whether the line was
// the "serving" line that ends start-up.
func (u *daemonURLs) parseLine(line string) (ready bool) {
	url := func(prefix string) (string, bool) {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			return "", false
		}
		f := strings.Fields(rest)
		if len(f) == 0 || !strings.HasPrefix(f[0], "http://") {
			return "", false
		}
		return f[0], true
	}
	if v, ok := url("resolver "); ok {
		u.resolver = v
	} else if v, ok := url("edge proxy "); ok {
		u.proxy = v
	} else if v, ok := url("debug "); ok {
		u.debug = strings.TrimSuffix(v, "/debug/metrics")
	}
	return strings.HasPrefix(line, "serving")
}

// startDaemon launches bin with the content directory and returns once the
// daemon has published everything and printed its "serving" line.
func startDaemon(ctx context.Context, bin, contentDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-content", contentDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, dead: make(chan struct{})}

	type startup struct {
		urls daemonURLs
		ok   bool
	}
	ready := make(chan startup, 1)
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() {
		defer pipes.Done()
		var u daemonURLs
		announced := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if !announced && u.parseLine(sc.Text()) {
				announced = true
				ready <- startup{u, true}
			}
		}
		if !announced {
			ready <- startup{}
		}
	}()
	go func() {
		defer pipes.Done()
		buf := make([]byte, 4096)
		for {
			n, err := stderr.Read(buf)
			d.mu.Lock()
			if room := 64<<10 - len(d.stderr); room > 0 {
				d.stderr = append(d.stderr, buf[:min(n, room)]...)
			}
			d.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		pipes.Wait() // Wait closes the pipes; let the readers drain first
		_ = cmd.Wait()
		close(d.dead)
	}()

	select {
	case s := <-ready:
		if !s.ok || s.urls.resolver == "" || s.urls.proxy == "" || s.urls.debug == "" {
			d.stop()
			return nil, fmt.Errorf("idicnd did not come up: %s", d.diagnosis())
		}
		d.resolverURL, d.proxyURL, d.debugURL = s.urls.resolver, s.urls.proxy, s.urls.debug
		return d, nil
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.dead:
		return false
	default:
		return true
	}
}

// stop ends the process (SIGTERM, then SIGKILL after two seconds) and
// waits until it is gone. Safe to call on a daemon that already died.
func (d *daemon) stop() {
	if d.alive() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.dead:
		case <-time.After(2 * time.Second):
			_ = d.cmd.Process.Kill()
		}
	}
	d.wg.Wait()
}

// diagnosis is the first "fatal error:" or "panic:" line of the daemon's
// stderr, or its first line, or a note that it said nothing.
func (d *daemon) diagnosis() string {
	d.mu.Lock()
	text := string(d.stderr)
	d.mu.Unlock()
	return firstFatalLine(text)
}

func firstFatalLine(stderr string) string {
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "fatal error:") || strings.HasPrefix(l, "panic:") {
			return l
		}
	}
	if lines[0] != "" {
		return lines[0]
	}
	return "(no stderr output)"
}

// httpGet fetches url and returns the body of a 200 response.
func httpGet(ctx context.Context, hc *http.Client, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close() // the status is the error worth reporting
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

// hosts asks the resolver which names are registered and returns the Host
// header value for each of objs, in order. Every object must be there: a
// daemon that published fewer files than it was given is a failed set-up.
func (d *daemon) hosts(ctx context.Context, hc *http.Client, objs []object) ([]string, error) {
	body, err := httpGet(ctx, hc, d.resolverURL+"/names")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var flat []string
	if err := json.NewDecoder(body).Decode(&flat); err != nil {
		return nil, fmt.Errorf("GET /names: %w", err)
	}
	byLabel := make(map[string]string, len(flat))
	for _, n := range flat {
		label, _, _ := strings.Cut(n, ".")
		byLabel[label] = n + "." + nameDomain
	}
	out := make([]string, len(objs))
	for i, o := range objs {
		h, ok := byLabel[o.label]
		if !ok {
			return nil, fmt.Errorf("resolver does not know label %s (%d names registered)", o.label, len(flat))
		}
		out[i] = h
	}
	return out, nil
}

// metrics fetches and parses /debug/metrics.
func (d *daemon) metrics(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	body, err := httpGet(ctx, hc, d.debugURL+"/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return parseMetrics(body)
}

// parseMetrics reads the daemon's "name value" text page. Histogram bucket
// lines ("x_bucket{le=...} n") are skipped: the benchmark uses only the
// _count and _sum lines, which are plain scalars.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// procCPU returns the user+system CPU time a process has used so far, from
// /proc/<pid>/stat. The kernel counts in clock ticks of 10 ms (USER_HZ is
// 100 on every Linux this runs on), fine against phases of seconds.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

func parseProcStat(stat string) (time.Duration, error) {
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from after its closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procPeakRSS returns a process's high-water resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			break
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
