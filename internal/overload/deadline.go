package overload

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries a request's remaining time budget across
// component hops as fractional milliseconds ("250", "12.5"). The value is
// relative, not an absolute timestamp, so it survives clock skew between
// hosts; each hop re-derives it from its own context deadline, so the
// budget shrinks as the request burns time in queues and upstream calls.
const DeadlineHeader = "X-ICN-Deadline"

// SetDeadlineHeader stamps h with the remaining budget from ctx's
// deadline, if any. A deadline at or past now is stamped as "0": the
// receiver sheds instantly rather than guessing.
func SetDeadlineHeader(ctx context.Context, h http.Header) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	rem := time.Until(dl)
	if rem < 0 {
		rem = 0
	}
	h.Set(DeadlineHeader, strconv.FormatFloat(float64(rem)/float64(time.Millisecond), 'f', 3, 64))
}

// HeaderDeadline parses the propagated budget from h. ok is false when the
// header is absent or malformed (a garbled budget must not shed traffic).
func HeaderDeadline(h http.Header) (time.Duration, bool) {
	v := h.Get(DeadlineHeader)
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseFloat(v, 64)
	// The negated form also rejects NaN; the upper bound rejects +Inf and
	// budgets whose nanosecond count would overflow a Duration.
	if err != nil || !(ms >= 0 && ms*float64(time.Millisecond) < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(ms * float64(time.Millisecond)), true
}

// ContextWithHeaderDeadline applies a propagated X-ICN-Deadline budget to
// ctx. The tighter of the header budget and any existing ctx deadline
// wins; cancel is nil when the header added nothing.
func ContextWithHeaderDeadline(ctx context.Context, h http.Header) (context.Context, context.CancelFunc) {
	budget, ok := HeaderDeadline(h)
	if !ok {
		return ctx, nil
	}
	if dl, has := ctx.Deadline(); has && time.Until(dl) <= budget {
		return ctx, nil
	}
	return context.WithTimeout(ctx, budget)
}

// Transport wraps next so every outgoing request carries the remaining
// budget of its context as an X-ICN-Deadline header — the client half of
// deadline propagation. A nil next uses http.DefaultTransport.
func Transport(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return deadlineTransport{next: next}
}

type deadlineTransport struct{ next http.RoundTripper }

// RoundTrip implements http.RoundTripper.
func (t deadlineTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, ok := req.Context().Deadline(); ok && req.Header.Get(DeadlineHeader) == "" {
		req = req.Clone(req.Context())
		SetDeadlineHeader(req.Context(), req.Header)
	}
	return t.next.RoundTrip(req)
}
