package main

import (
	"cmp"
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"syscall"
	"time"
)

// kind is a stakeholder operation type; latencies and layer figures are
// broken down by it.
type kind uint8

const (
	kFetch kind = iota
	kRead
	kUpdate
	kAttest
	kPushTag
	kExit
	kCreate
	kDelete
	numKinds
)

var kindNames = [numKinds]string{"fetch", "read", "update", "attest", "push_tag", "exit", "create", "delete"}

func (k kind) String() string { return kindNames[k] }

// op is one request in a worker's stream. Generators fill every field
// but due from the workload seed; due is the open-loop send time,
// measured from the start of the phase.
type op struct {
	due  time.Duration
	kind kind
	// pol indexes the workload's policies (or names a fleet cycle).
	pol int
	// val is seeded per-op content: tag bytes, rotated secret values.
	val uint64
}

// Seed streams: every random input derives from the workload seed and
// one of these stream identifiers, so phases never share a sequence.
const (
	streamSetup uint64 = iota + 1
	streamClosed
	streamOpen
	streamArrivals
	streamReplay
	streamBarrier
	streamTraced
	streamWarm
)

func rng(seed, stream uint64, worker int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<16|uint64(worker)))
}

// schedule draws an open-loop schedule for one worker: Poisson arrivals
// at rate ops/s over d, with op content from next.
func schedule(next func() op, arrivals *rand.Rand, rate float64, d time.Duration) []op {
	var ops []op
	t := 0.0
	for {
		t += arrivals.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		o := next()
		o.due = due
		ops = append(ops, o)
	}
}

// execFunc performs one operation for a worker. It returns a check of
// the answer, run after the operation's end time is taken, so output
// verification is never charged to latency.
type execFunc func(ctx context.Context, worker int, o op) (check func() error, err error)

// sample is one completed operation.
type sample struct {
	kind kind
	// lat is end minus due time (open loop) or end minus start (closed).
	lat time.Duration
	// late is how far behind its due time the generator sent an op it
	// was free to send: timer and scheduling lag, not queueing.
	late   time.Duration
	failed bool
}

// phaseResult collects one phase's samples from every worker.
type phaseResult struct {
	samples []sample
	wall    time.Duration
	errs    []error
}

func (r *phaseResult) failures() int {
	n := 0
	for _, s := range r.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// worker-local accumulation, merged after the phase.
type workerLog struct {
	samples []sample
	errs    []error
}

func (l *workerLog) record(k kind, lat, late time.Duration, err error, check func() error) {
	if err == nil && check != nil {
		err = check()
	}
	if err != nil && len(l.errs) < 8 {
		l.errs = append(l.errs, err)
	}
	l.samples = append(l.samples, sample{kind: k, lat: lat, late: late, failed: err != nil})
}

func merge(logs []workerLog, wall time.Duration) phaseResult {
	res := phaseResult{wall: wall}
	for _, l := range logs {
		res.samples = append(res.samples, l.samples...)
		res.errs = append(res.errs, l.errs...)
	}
	return res
}

// closedLoop runs one generator per worker back to back until d has
// elapsed: each worker sends its next request only after the previous
// one completed.
func closedLoop(ctx context.Context, gens []func() op, d time.Duration, exec execFunc, tr *tracer) phaseResult {
	logs := make([]workerLog, len(gens))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := gens[w]()
				t0 := time.Now()
				octx := ctx
				if tr != nil {
					octx = tr.begin(ctx, o.kind)
				}
				check, err := exec(octx, w, o)
				lat := time.Since(t0)
				if tr != nil {
					tr.end(o.kind, lat)
				}
				logs[w].record(o.kind, lat, 0, err, check)
			}
		}()
	}
	wg.Wait()
	return merge(logs, time.Since(start))
}

// openLoop sends each worker's scheduled ops at their due times. A worker
// still busy when an op falls due sends it as soon as it is free, and the
// op's latency runs from its due time, so a stall is charged to every
// request due during it (no coordinated omission).
func openLoop(ctx context.Context, scheds [][]op, exec execFunc, tr *tracer) phaseResult {
	logs := make([]workerLog, len(scheds))
	start := time.Now()
	var wg sync.WaitGroup
	for w := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for _, o := range scheds[w] {
				if ctx.Err() != nil {
					return
				}
				due := start.Add(o.due)
				waitUntil(due)
				sent := time.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				octx := ctx
				if tr != nil {
					octx = tr.begin(ctx, o.kind)
				}
				check, err := exec(octx, w, o)
				end := time.Now()
				if tr != nil {
					tr.end(o.kind, end.Sub(sent))
				}
				free = end
				logs[w].record(o.kind, end.Sub(due), sent.Sub(ready), err, check)
			}
		}()
	}
	wg.Wait()
	return merge(logs, time.Since(start))
}

// waitUntil blocks the calling goroutine's thread in nanosleep until due.
// A Go timer would do for long waits, but an idle Go runtime parks in the
// network poller with millisecond timeouts, which would send most
// requests up to a millisecond late; and spinning until due would starve
// the runtime's own network polling. In the kernel the thread wakes
// within the timer slack, and the runtime hands its P to other
// goroutines meanwhile.
func waitUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// percentile returns the nearest-rank q-quantile (0 <= q <= 1) of sorted
// values: the smallest sample with at least q of all samples at or
// below it (the smallest sample for q = 0).
func percentile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencies returns the sorted latencies of successful samples, all kinds
// (k < 0) or one kind.
func latencies(samples []sample, k int) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if !s.failed && (k < 0 || int(s.kind) == k) {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
