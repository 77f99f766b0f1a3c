package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// opResult is the outcome of one generated operation.
type opResult struct {
	Index   int           // position in the op sequence
	Sent    bool          // false: still unsent at the deadline, a failure
	Err     error         // transport, status or answer-check failure
	Latency time.Duration // completion − due time (open loop) or − send time (closed loop)
	Late    time.Duration // send time − due time (open loop only)
	Start   time.Time     // when the op was actually issued
}

func (r opResult) failed() bool { return !r.Sent || r.Err != nil }

// openLoop issues len(due) operations on a fixed schedule over at most
// conns connections: op i is due at start+due[i] whether or not earlier ops
// have completed, and its latency runs from that due time, so the wait a
// stall imposes on later requests is counted. Each connection takes the
// next op in order once it is free; an op whose turn comes only after the
// deadline is not sent and counts as failed. inflightMax reports the peak
// number of ops in progress.
func openLoop(clk clock, conns int, due []time.Duration, deadline time.Duration, do func(i int) error) (res []opResult, inflightMax int) {
	res = make([]opResult, len(due))
	start := clk.Now()
	var next, inflight, peak atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				r := &res[i]
				r.Index = i
				dueAt := start.Add(due[i])
				if wait := dueAt.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				r.Start = clk.Now()
				if r.Start.Sub(start) > deadline {
					continue // unsent
				}
				r.Sent = true
				r.Late = r.Start.Sub(dueAt)
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				r.Err = do(i)
				inflight.Add(-1)
				r.Latency = clk.Now().Sub(dueAt)
			}
		}()
	}
	wg.Wait()
	return res, int(peak.Load())
}

// closedLoop runs clients goroutines that each issue the next op of a shared
// sequence as soon as their previous one completes, until window has elapsed
// or maxOps ops were issued. It returns the results in issue order and the
// measured window (first send to last completion).
func closedLoop(clients int, window time.Duration, maxOps int, do func(client, i int) error) ([]opResult, time.Duration) {
	var mu sync.Mutex
	var res []opResult
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < window {
				i := int(next.Add(1)) - 1
				if i >= maxOps {
					return
				}
				t0 := time.Now()
				err := do(c, i)
				r := opResult{Index: i, Sent: true, Err: err, Latency: time.Since(t0), Start: t0}
				mu.Lock()
				res = append(res, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(res, func(a, b int) bool { return res[a].Index < res[b].Index })
	return res, elapsed
}

// fixedSchedule returns the due offsets of a constant-rate arrival process:
// request i of a step at rate rps is due i/rps after the step starts.
func fixedSchedule(rps float64, dur time.Duration) []time.Duration {
	n := int(rps * dur.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rps * float64(time.Second))
	}
	return due
}
