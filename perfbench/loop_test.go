package main

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		draw := func(seed uint64) [][]op {
			b := &bench{spec: sp, seed: seed}
			return b.schedules(sp.newWorkload(), streamOpen, 2*time.Second)
		}
		a, again, other := draw(7), draw(7), draw(8)
		if len(a[0]) == 0 || len(a[1]) == 0 {
			t.Fatalf("%s: empty schedule", sp.name)
		}
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: the same seed drew different schedules", sp.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: different seeds drew the same schedule", sp.name)
		}
	}
}

func TestOpenLoopChargesStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		step  = time.Millisecond
		stall = 100 * time.Millisecond
		at    = 50
	)
	var sched []op
	for i := range 300 {
		sched = append(sched, op{due: time.Duration(i) * step, pol: i})
	}
	exec := func(_ context.Context, _ int, o op) (func() error, error) {
		if o.pol == at {
			time.Sleep(stall)
		}
		return nil, nil
	}
	res := openLoop(context.Background(), [][]op{sched}, exec, nil)
	if len(res.samples) != len(sched) {
		t.Fatalf("got %d samples for %d ops", len(res.samples), len(sched))
	}
	stallEnd := time.Duration(at)*step + stall
	for i, s := range res.samples {
		due := sched[i].due
		if due > time.Duration(at)*step && due < stallEnd {
			// Due during the stall: charged from its due time to at least
			// the stall's end.
			if want := stallEnd - due; s.lat < want {
				t.Errorf("op due at %v: latency %v, want at least %v", due, s.lat, want)
			}
		}
	}
	if last := res.samples[len(res.samples)-1]; last.lat > 50*time.Millisecond {
		t.Errorf("backlog did not drain: last op latency %v", last.lat)
	}
}

func TestPercentileMatchesSortedSamples(t *testing.T) {
	var vals []time.Duration
	for i := 100; i >= 1; i-- {
		vals = append(vals, time.Duration(i)*time.Millisecond)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}, {0.001, time.Millisecond}, {0, time.Millisecond}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := percentile[time.Duration](nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	odd := []time.Duration{1, 2, 3}
	if got := percentile(odd, 0.5); got != 2 {
		t.Errorf("p50 of 1,2,3 = %v, want 2", got)
	}
}

func TestUpperQuartileOfRounds(t *testing.T) {
	// Round i holds i successful samples; f reads the count, and the
	// empty round is skipped.
	var rounds []phaseResult
	for i := range 9 {
		rounds = append(rounds, phaseResult{samples: make([]sample, i)})
	}
	count := func(r phaseResult) float64 { return float64(len(r.samples)) }
	if v, n := upperQuartile(rounds, true, count); v != 6 || n != 36 {
		t.Errorf("higher is better: %v over %d ops, want 6 over 36", v, n)
	}
	if v, _ := upperQuartile(rounds, false, count); v != 2 {
		t.Errorf("lower is better: %v, want 2", v)
	}
	if v, n := upperQuartile(nil, true, count); v != 0 || n != 0 {
		t.Errorf("no rounds: %v over %d ops, want 0 over 0", v, n)
	}
}
