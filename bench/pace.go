package main

import (
	"sync/atomic"
	"syscall"
	"time"
)

// schedule is an open-loop send plan: request i is due at start +
// i*interval, whatever happened to the requests before it.
type schedule struct {
	start    time.Time
	interval time.Duration
	n        int
	claimed  atomic.Int64
}

// claim hands the caller the next unsent request and its due time; ok is false
// once all n are taken. Connections claim in turn, so a request goes out on
// whichever connection is free first — and late, if none is.
func (s *schedule) claim() (i int, due time.Time, ok bool) {
	i = int(s.claimed.Add(1) - 1)
	if i >= s.n {
		return 0, time.Time{}, false
	}
	return i, s.start.Add(time.Duration(i) * s.interval), true
}

// unclaimed is how many requests nobody has taken yet.
func (s *schedule) unclaimed() int64 {
	return max(int64(s.n)-s.claimed.Load(), 0)
}

// lateness is how long after its due time a request was actually sent: the
// load generator's own delay (a busy connection, a coarse sleep), zero for
// a request sent on time.
func lateness(due, sent time.Time) time.Duration {
	return max(sent.Sub(due), 0)
}

// sleepUntil blocks the calling goroutine's thread until t. It uses
// nanosleep(2) rather than time.Sleep: an idle Go scheduler waits in
// epoll_wait, whose timeout is whole milliseconds, so a 300 us time.Sleep
// returns up to a millisecond late — several times the latency being
// measured. nanosleep is late by the kernel's timer slack (~50 us).
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}
