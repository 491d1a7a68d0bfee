package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// target is the system the load is aimed at: a proxy URL, the Host header
// per object, and what each object's body must look like.
type target struct {
	hc       *http.Client
	proxyURL string
	hosts    []string
	objs     []object
	// wantHit makes any X-Cache other than HIT a failed request.
	wantHit bool
	// dead, when not nil, is closed when the system under test has gone
	// away; load stops within one request of that.
	dead <-chan struct{}
}

// newHTTPClient returns a client that keeps at most conns connections,
// all of them alive between requests: the benchmark's "C connections".
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// fetched is the outcome of one request.
type fetched struct {
	err  error
	ttfb time.Time // first response byte
	done time.Time // body read and checked
	hit  bool
}

// conn is one closed-loop caller: a sampler, a reusable body buffer and a
// count of requests used to pick the 1-in-16 full digest checks.
type conn struct {
	t    *target
	next sampler
	buf  []byte
	n    int
}

func (t *target) conn(next sampler) *conn {
	size := 0
	for _, o := range t.objs {
		size = max(size, o.size)
	}
	return &conn{t: t, next: next, buf: make([]byte, size+1)}
}

// fetch requests the sampler's next object through the proxy and checks
// the response: status 200, Content-Length and length read equal to the
// published size, first and last 16 bytes, the full SHA-256 on every 16th
// request, and X-Cache when the workload demands hits.
func (c *conn) fetch(ctx context.Context) fetched {
	i := c.next()
	o := &c.t.objs[i]
	c.n++
	var f fetched
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() { f.ttfb = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.t.proxyURL+"/", nil)
	if err != nil {
		f.err = err
		return f
	}
	req.Host = c.t.hosts[i]
	resp, err := c.t.hc.Do(req)
	if err != nil {
		f.err = err
		return f
	}
	defer resp.Body.Close()
	n, rerr := io.ReadFull(resp.Body, c.buf)
	f.done = time.Now()
	body := c.buf[:n]
	f.hit = resp.Header.Get("X-Cache") == "HIT"
	switch {
	case resp.StatusCode != http.StatusOK:
		f.err = fmt.Errorf("%s: status %s: %s", o.label, resp.Status, bytes.TrimSpace(body[:min(n, 120)]))
	case rerr != io.ErrUnexpectedEOF:
		// The buffer is one byte longer than the largest object, so a
		// complete body always ends in a short read.
		f.err = fmt.Errorf("%s: reading body: %v", o.label, rerr)
	case resp.ContentLength != int64(o.size) || n != o.size:
		f.err = fmt.Errorf("%s: length %d (Content-Length %d), published %d", o.label, n, resp.ContentLength, o.size)
	case !bytes.Equal(body[:min(n, 16)], o.head[:min(n, 16)]) || !bytes.Equal(body[max(n-16, 0):], o.tail[:min(n, 16)]):
		f.err = fmt.Errorf("%s: body does not start and end as published", o.label)
	case c.n%16 == 0 && sha256.Sum256(body) != o.digest:
		f.err = fmt.Errorf("%s: SHA-256 differs from the published content", o.label)
	case c.t.wantHit && !f.hit:
		f.err = fmt.Errorf("%s: X-Cache %q, want HIT", o.label, resp.Header.Get("X-Cache"))
	}
	return f
}

// tally counts requests over one or more phases. firstErr keeps the first
// failure for the report; the rest are only counted.
type tally struct {
	mu sync.Mutex
	//icn:guardedby mu
	attempted int64
	//icn:guardedby mu
	failed int64
	//icn:guardedby mu
	firstErr error
}

func (t *tally) record(f fetched) {
	t.mu.Lock()
	t.attempted++
	if f.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = f.err
		}
	}
	t.mu.Unlock()
}

// writeOff counts n requests that could not be sent as attempted and
// failed: what is left of a run once the system under test is dead.
func (t *tally) writeOff(n int64, cause error) {
	t.mu.Lock()
	t.attempted += n
	t.failed += n
	if t.firstErr == nil {
		t.firstErr = cause
	}
	t.mu.Unlock()
}

func (t *tally) snapshot() (attempted, failed int64, firstErr error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.firstErr
}

// gone reports whether the system under test has exited.
func (t *target) gone() bool {
	if t.dead == nil {
		return false
	}
	select {
	case <-t.dead:
		return true
	default:
		return false
	}
}

// closedResult is what a closed-loop phase measured.
type closedResult struct {
	requests int64   // completed, failures included
	rate     float64 // median over the segments, successful requests per second
	aborted  bool    // the system under test died
}

// closedLoop runs len(conns) callers back to back for dur: each sends its
// next request when its previous one completes. The phase is cut into
// nseg equal segments and the rate is their median. When the system under
// test dies, the callers stop and the unsent remainder of the phase is
// written off as failed at the rate seen so far.
func closedLoop(ctx context.Context, t *target, conns []*conn, dur time.Duration, nseg int, tl *tally) closedResult {
	seg := make([]*segments, len(conns))
	var done atomic.Int64
	var aborted atomic.Bool
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k, c := range conns {
		seg[k] = newSegments(nseg, dur.Seconds())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				f := c.fetch(ctx)
				tl.record(f)
				done.Add(1)
				if f.err != nil {
					if t.gone() {
						aborted.Store(true)
						return
					}
					continue
				}
				seg[k].add(f.done.Sub(start).Seconds())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := closedResult{requests: done.Load(), aborted: aborted.Load()}
	all := newSegments(nseg, dur.Seconds())
	for _, s := range seg {
		for i, n := range s.counts {
			all.counts[i] += n
		}
	}
	res.rate = all.medianRate()
	if res.aborted {
		if left := dur - elapsed; left > 0 {
			lost := int64(float64(res.requests)/elapsed.Seconds()*left.Seconds()) + 1
			tl.writeOff(lost, fmt.Errorf("system under test died %.1fs into a %.0fs phase", elapsed.Seconds(), dur.Seconds()))
		}
	}
	return res
}

// warm sends n requests one after another on a single connection.
func warm(ctx context.Context, t *target, next sampler, n int, tl *tally) error {
	c := t.conn(next)
	for range n {
		f := c.fetch(ctx)
		tl.record(f)
		if f.err != nil {
			return f.err
		}
	}
	return nil
}

// sample is one successful request of an open-loop phase, in microseconds.
type sample struct {
	idx     int     // position in the schedule
	latency float64 // due -> body read
	ttfb    float64 // due -> first response byte
	late    float64 // due -> actually sent: the generator's own lateness
}

// pacedResult is what an open-loop phase measured.
type pacedResult struct {
	n       int // requests scheduled
	samples []sample
	aborted bool
}

// quantile is the q-quantile of one field over all samples.
func (p pacedResult) quantile(field func(sample) float64, q float64) float64 {
	return p.windowQuantile(field, q, 1)
}

// windowQuantile cuts the schedule into equal consecutive windows, takes
// the q-quantile of field in each and returns the median of those. One
// disturbance — a collection in the daemon, a neighbour on the box — then
// spoils one window's tail instead of the whole run's, which is what keeps
// a high percentile comparable from run to run.
func (p pacedResult) windowQuantile(field func(sample) float64, q float64, windows int) float64 {
	per := make([][]float64, windows)
	for _, s := range p.samples {
		w := s.idx * windows / p.n
		per[w] = append(per[w], field(s))
	}
	var qs []float64
	for _, v := range per {
		if len(v) > 0 {
			sort.Float64s(v)
			qs = append(qs, percentile(v, q))
		}
	}
	return median(qs)
}

func latencyOf(s sample) float64 { return s.latency }
func ttfbOf(s sample) float64    { return s.ttfb }
func lateOf(s sample) float64    { return s.late }

// paced runs an open-loop phase: n requests due at start, start+1/rate,
// start+2/rate, ... regardless of how the system responds, sent over
// len(conns) connections. A request is timed from the instant it was due,
// not from when a connection was free to send it, so a stall is charged to
// every request it delays; how late the generator itself ran is kept
// separately.
func paced(ctx context.Context, t *target, conns []*conn, rate float64, n int, tl *tally) pacedResult {
	sched := &schedule{start: time.Now().Add(5 * time.Millisecond), interval: time.Duration(float64(time.Second) / rate), n: n}
	samples := make([][]sample, len(conns))
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !aborted.Load() {
				i, due, ok := sched.claim()
				if !ok {
					return
				}
				sleepUntil(due)
				sent := time.Now()
				f := c.fetch(ctx)
				tl.record(f)
				if f.err != nil {
					if t.gone() {
						aborted.Store(true)
					}
					continue
				}
				samples[k] = append(samples[k], sample{
					idx:     i,
					latency: us(f.done.Sub(due)),
					ttfb:    us(f.ttfb.Sub(due)),
					late:    us(lateness(due, sent)),
				})
			}
		}()
	}
	wg.Wait()
	res := pacedResult{n: n}
	for _, ss := range samples {
		res.samples = append(res.samples, ss...)
	}
	if aborted.Load() {
		res.aborted = true
		if left := sched.unclaimed(); left > 0 {
			tl.writeOff(left, fmt.Errorf("system under test died with %d paced requests unsent", left))
		}
	}
	return res
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// selfCPU is the benchmark process's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
