package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a request's
// outermost span). Times are nanoseconds since the recorder was made.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e3 } // microseconds

// recorder keeps spans in memory until the run ends. While switched off
// its wrappers pass straight through, which is how the same assembled
// stack is measured with tracing on and off.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu sync.Mutex
	//icn:guardedby mu
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef is the position in a request's span tree that work is currently
// running under; it travels in the context within a process and in the
// X-Bench-Span header between the in-process components.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

const spanHeader = "X-Bench-Span"

func (r spanRef) header() string {
	return strconv.FormatUint(r.req, 10) + "/" + strconv.FormatUint(r.id, 10)
}

func parseSpanHeader(v string) (spanRef, bool) {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return spanRef{req, id}, err1 == nil && err2 == nil
}

// begin opens a span named name under parent (a zero parent starts a new
// request) and returns the context to run the spanned work under and the
// function that closes the span.
func (r *recorder) begin(ctx context.Context, parent spanRef, name string) (context.Context, func()) {
	id := r.ids.Add(1)
	req := parent.req
	if req == 0 {
		req = id
	}
	start := time.Since(r.epoch)
	ctx = context.WithValue(ctx, spanKey{}, spanRef{req, id})
	return ctx, func() {
		s := span{Req: req, ID: id, Parent: parent.id, Name: name, Start: start.Nanoseconds(), End: time.Since(r.epoch).Nanoseconds()}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// current returns the span the context is running under.
func current(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// stage records fn as a top-level span: the traced simulator probes are
// stages, one after the other.
func (r *recorder) stage(name string, fn func()) time.Duration {
	_, end := r.begin(context.Background(), spanRef{}, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	end()
	return d
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanStats is the per-name summary of a span set: how many, their mean
// duration and their mean self time (duration minus the part of it covered
// by direct children), in microseconds.
type spanStats struct {
	Count    int     `json:"count"`
	MeanUs   float64 `json:"mean_us"`
	SelfUs   float64 `json:"self_us"`
	totalUs  float64
	totalSel float64
}

// summarize computes self times. A child is subtracted from its parent in
// full: children of one span never overlap in this stack (the proxy
// resolves, then fetches), so no interval is subtracted twice.
func summarize(spans []span) map[string]*spanStats {
	childUs := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childUs[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.Count++
		st.totalUs += s.dur()
		st.totalSel += s.dur() - childUs[s.ID]
	}
	for _, st := range out {
		st.MeanUs = st.totalUs / float64(st.Count)
		st.SelfUs = st.totalSel / float64(st.Count)
	}
	return out
}

// traceFile is the content of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Summary  map[string]*spanStats `json:"summary"`
	Spans    []span                `json:"spans"`
}

func writeTrace(e *env, workload string, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: e.seed, Summary: summarize(spans), Spans: spans})
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/trace-%s.json", e.outDir, workload)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
