// Command perfbench is the PALÆMON benchmark. It boots PALÆMON the way
// palaemond does (durable platform, observability and audit chain on,
// group commit, fsync on, no admission limits), or a replicated fleet,
// and drives one of four stakeholder workloads over TLS with 2 workers:
//
//	go run . --workload app-config-read --seed 1 --seconds 10 --trace 0
//
// After the set-ups, a run alternates closed-loop windows (2 connections
// back to back: ops_s, p50_ms, p99_ms) with open-loop windows (a seeded
// Poisson schedule at the workload's fixed rate, each request timed from
// its due time). --trace 1 instead runs the traced variant that prints
// the per-layer breakdown. Every answer is checked; the last line of
// standard output is the JSON result, and the exit code is non-zero when
// any check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"palaemon/internal/policy"
)

// An untraced run sets the system up at least minSetups times, and
// again while its set-ups have taken less than setupBudget in all, up to
// maxSetups; setup_s is the median. A set-up of tens of milliseconds is
// repeated most, as one slow fsync moves it the most.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// warmUp is the closed-loop time an untraced run spends before its
// rounds; its operations are checked but not timed.
const warmUp = time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: app-config-read, app-lifecycle, governed-churn, fleet-replicated")
		seed    = flag.Uint64("seed", 1, "workload seed: every input derives from it")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer variant")
		dir     = flag.String("data", "", "data directory for the system under test, removed at exit (default .bench_build/perfbench-<pid>)")
	)
	flag.Parse()
	code, err := run(*name, *seed, *seconds, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// outcome is a finished run.
type outcome struct {
	res               results
	attempted, failed int
	correct           bool
	lines             []string
}

type bench struct {
	spec    spec
	seed    uint64
	seconds float64
	dir     string
}

func run(name string, seed uint64, seconds int, traced bool, dir string) (int, error) {
	sp, ok := specByName(name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	if dir == "" {
		dir = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	fmt.Println("conditions", conditions(name, seed, seconds, traced, dir))

	b := &bench{spec: sp, seed: seed, seconds: float64(seconds), dir: dir}
	// SIGINT or SIGTERM stops the loops early, so the deferred shutdown
	// and the removal of dir still run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		out outcome
		err error
	)
	defs := endToEnd
	if traced {
		defs = perLayer
		out, err = b.traced(ctx)
	} else {
		out, err = b.untraced(ctx)
	}
	if err != nil {
		return 1, err
	}
	if ctx.Err() != nil {
		return 1, fmt.Errorf("interrupted")
	}
	out.res.report(os.Stdout, defs)
	for _, l := range out.lines {
		fmt.Println(l)
	}
	line, err := resultLine(out.correct, out.attempted, out.failed, out.res, defs)
	if err != nil {
		return 1, err
	}
	fmt.Println(line)
	if !out.correct {
		return 1, fmt.Errorf("%d of %d operations failed or returned a wrong answer", out.failed, out.attempted)
	}
	return 0, nil
}

func (b *bench) gens(w workload, phase uint64) []func() op {
	gs := make([]func() op, 2)
	for i := range gs {
		gs[i] = w.gen(phase, i, rng(b.seed, phase, i))
	}
	return gs
}

func (b *bench) schedules(w workload, phase uint64, d time.Duration) [][]op {
	gs := b.gens(w, phase)
	out := make([][]op, len(gs))
	for i, g := range gs {
		out[i] = schedule(g, rng(b.seed, streamArrivals<<8|phase, i), b.spec.rate/float64(len(gs)), d)
	}
	return out
}

func attestsPerPolicy(scheds [][]op) map[int]int {
	n := map[int]int{}
	for _, s := range scheds {
		for _, o := range s {
			if o.kind == kAttest {
				n[o.pol]++
			}
		}
	}
	return n
}

func (b *bench) secs(share float64) time.Duration {
	return time.Duration(b.seconds * share * float64(time.Second))
}

// setup sets a fresh system up in dir and reports how long it took.
func (b *bench) setup(ctx context.Context, dir string, tr *tracer, opens map[int]int, closed time.Duration) (workload, time.Duration, error) {
	w := b.spec.newWorkload()
	env := &setupEnv{dir: dir, seed: b.seed, tr: tr, opens: opens, closedSeconds: closed.Seconds()}
	start := time.Now()
	err := w.setup(ctx, env)
	d := time.Since(start)
	if err != nil {
		if cerr := w.close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close after failed setup:", cerr)
		}
		return nil, d, fmt.Errorf("%s setup: %w", b.spec.name, err)
	}
	return w, d, nil
}

func closeWorkload(w workload) {
	if err := w.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: close:", err)
	}
}

func reportErrs(phase string, r phaseResult) {
	for _, err := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", phase, err)
	}
}

// untraced is the end-to-end run: the set-ups, a closed-loop
// warm-up, then rounds of roundSeconds that each run a closed-loop window
// (closedShare of the round) and an open-loop window (the rest). The
// gated figures come from the closed loop: each is the upper quartile of
// its per-round values (the 75th percentile of ops_s, the 25th of a
// latency). Other tenants of a shared machine only ever slow the program
// down, for seconds to minutes at a time, so the faster rounds are the
// steadier estimate of its own speed; a quartile rather than the best
// round keeps one lucky round from setting the figure (over 10 seeds on
// 2 vCPUs it cut the run-to-run spread of ops_s and p50_ms by about a
// third against the best round). The
// per-round figures are printed too, so a program stall that hits only
// some rounds stays visible. The open-loop figures, timed from each
// request's due time, are reported beside them: on a 2-vCPU virtual
// machine at low load they mostly measure how fast idle vCPUs wake, and
// their run-to-run spread was several times any usable bound.
func (b *bench) untraced(ctx context.Context) (outcome, error) {
	rounds := max(1, int(b.seconds/roundSeconds+0.5))
	closedD, openD := b.secs(closedShare/float64(rounds)), b.secs((1-closedShare)/float64(rounds))
	scheds := make([][][]op, rounds)
	opens := map[int]int{}
	for r := range scheds {
		scheds[r] = b.schedules(b.spec.newWorkload(), streamOpen<<8|uint64(r), openD)
		for p, n := range attestsPerPolicy(scheds[r]) {
			opens[p] += n
		}
	}
	var (
		setups []time.Duration
		spent  time.Duration
		w      workload
	)
	for i := 0; w == nil; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup-%d", i))
		sw, d, err := b.setup(ctx, dir, nil, opens, b.secs(closedShare)+warmUp)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, d)
		spent += d
		if n := len(setups); n >= maxSetups || (n >= minSetups && spent >= setupBudget) {
			w = sw
			break
		}
		if err := sw.close(); err != nil {
			return outcome{}, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return outcome{}, err
		}
	}
	defer closeWorkload(w)
	out := outcome{res: results{}}
	warm := closedLoop(ctx, b.gens(w, streamWarm), warmUp, w.exec, nil)
	w.endPhase()
	reportErrs("warm-up", warm)
	out.attempted, out.failed = len(warm.samples), warm.failures()
	runtime.GC()

	heap := startHeapPeak()
	closed := make([]phaseResult, rounds)
	var open []sample
	for r := range rounds {
		closed[r] = closedLoop(ctx, b.gens(w, streamClosed<<8|uint64(r)), closedD, w.exec, nil)
		w.endPhase()
		o := openLoop(ctx, scheds[r], w.exec, nil)
		w.endPhase()
		reportErrs("closed loop", closed[r])
		reportErrs("open loop", o)
		out.attempted += len(closed[r].samples) + len(o.samples)
		out.failed += closed[r].failures() + o.failures()
		open = append(open, o.samples...)
	}
	peak, heapSamples := heap.end()
	out.correct = out.failed == 0
	if err := w.finalCheck(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: final check:", err)
		out.correct = false
	}

	setupLine := "setups s:"
	for _, d := range setups {
		setupLine += fmt.Sprintf(" %.4f", d.Seconds())
	}
	out.lines = append(out.lines, setupLine)
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	out.res.set("setup_s", percentile(setups, 0.5).Seconds(), len(setups))
	throughput := func(r phaseResult) float64 { return float64(len(r.samples)-r.failures()) / r.wall.Seconds() }
	quantile := func(k int, q float64) func(phaseResult) float64 {
		return func(r phaseResult) float64 { return ms(percentile(latencies(r.samples, k), q)) }
	}
	setQuartile := func(name string, higher bool, f func(phaseResult) float64) {
		v, n := upperQuartile(closed, higher, f)
		out.res.set(name, v, n)
	}
	setQuartile("ops_s", true, throughput)
	setQuartile("p50_ms", false, quantile(-1, 0.5))
	setQuartile("p99_ms", false, quantile(-1, 0.99))
	out.res.set("ok_ratio", 1-ratio(float64(out.failed), float64(out.attempted)), out.attempted)
	out.res.set("heap_peak_mb", peak, heapSamples)

	// Per-kind closed-loop latency, for the kinds this workload issues.
	line := func(name string, v float64, n int) string {
		return fmt.Sprintf("metric %-34s %14.6f %-9s n=%d", name, v, "ms", n)
	}
	for k := range numKinds {
		if v, n := upperQuartile(closed, false, quantile(int(k), 0.5)); n > 0 {
			out.lines = append(out.lines, line(k.String()+"_p50_ms", v, n))
		}
	}
	perRound := func(f func(phaseResult) float64) string {
		var b strings.Builder
		for i, r := range closed {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", f(r))
		}
		return b.String()
	}
	out.lines = append(out.lines,
		"rounds ops_s: "+perRound(throughput),
		"rounds p50_ms: "+perRound(quantile(-1, 0.5)),
		"rounds p99_ms: "+perRound(quantile(-1, 0.99)))
	lat := latencies(open, -1)
	out.lines = append(out.lines,
		line("open_p50_ms", ms(percentile(lat, 0.5)), len(lat)),
		line("open_p99_ms", ms(percentile(lat, 0.99)), len(lat)),
		fmt.Sprintf("rounds: %d of %.2f s closed loop + %.2f s open loop at %.0f ops/s (timed from due); generator late p99 %.3f ms",
			rounds, closedD.Seconds(), openD.Seconds(), b.spec.rate, ms(latePercentile(open, 0.99))))
	if lw, ok := w.(*lifecycle); ok && lw.reused.Load() > 0 {
		out.lines = append(out.lines, fmt.Sprintf("evidence reused: %d attests exceeded the minted pool", lw.reused.Load()))
	}
	return out, nil
}

// roundSeconds is the length of one closed-loop/open-loop window pair;
// an untraced run holds as many as fit. closedShare of each round is the
// closed loop.
const (
	roundSeconds = 2
	closedShare  = 0.75
)

// upperQuartile returns the per-round value of f that a quarter of the
// rounds beat: its nearest-rank 75th percentile over the rounds that hold
// samples of interest (f > 0) when higher is better, else its 25th. The
// count is the successful operations of those rounds.
func upperQuartile(rounds []phaseResult, higher bool, f func(phaseResult) float64) (float64, int) {
	var vals []float64
	n := 0
	for _, r := range rounds {
		if v := f(r); v > 0 {
			vals = append(vals, v)
			n += len(r.samples) - r.failures()
		}
	}
	sort.Float64s(vals)
	if higher {
		return percentile(vals, 0.75), n
	}
	return percentile(vals, 0.25), n
}

func latePercentile(samples []sample, q float64) time.Duration {
	var late []time.Duration
	for _, s := range samples {
		late = append(late, s.late)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return percentile(late, q)
}

// writeP50 is the median latency of the writes among samples.
func writeP50(samples []sample) time.Duration {
	var ws []sample
	for _, s := range samples {
		if s.kind == kCreate || s.kind == kUpdate || s.kind == kDelete {
			ws = append(ws, s)
		}
	}
	return percentile(latencies(ws, -1), 0.5)
}

// replayed holds the sampled replay of a workload's ops on core.Instance.
type replayed struct {
	n      [numKinds]int
	time   [numKinds]time.Duration
	writes [numKinds]float64
}

// replay re-runs the workload's op stream directly on the instance for up
// to a second, timing each op and counting its database writes.
func (b *bench) replay(ctx context.Context, w workload) (replayed, error) {
	var r replayed
	if err := w.useLocal(); err != nil {
		return r, err
	}
	defer w.endPhase()
	gens := b.gens(w, streamReplay)
	deadline := time.Now().Add(time.Second)
	for i := 0; i < 2000 && time.Now().Before(deadline); i++ {
		wk := i % 2
		o := gens[wk]()
		before := w.probe().dbSeq
		start := time.Now()
		check, err := w.exec(ctx, wk, o)
		d := time.Since(start)
		if err == nil && check != nil {
			err = check()
		}
		if err != nil {
			return r, fmt.Errorf("replay %s on the instance: %w", o.kind, err)
		}
		r.n[o.kind]++
		r.time[o.kind] += d
		r.writes[o.kind] += w.probe().dbSeq - before
	}
	return r, nil
}

// writeSizes approximates the run's database writes: one entry per write
// the replay counted per op kind, scaled to the traced op mix, sized as
// the stored record (policy JSON, or a tag record).
func (b *bench) writeSizes(kinds [numKinds]kindTrace, rep replayed, pols []*policy.Policy) []int {
	polSize := 0
	for _, p := range pols {
		raw, _ := json.Marshal(p) // plain data struct
		polSize += len(raw)
	}
	if len(pols) > 0 {
		polSize /= len(pols)
	}
	tagRecord, _ := json.Marshal(struct {
		Tag       string `json:"tag"`
		Running   bool   `json:"running"`
		CleanExit bool   `json:"clean_exit"`
		Epoch     uint64 `json:"epoch"`
	}{Tag: fmt.Sprintf("%064x", 1), Running: true, Epoch: 1 << 20})
	const total = 800
	var weights [numKinds]float64
	sum := 0.0
	for k := range numKinds {
		if rep.n[k] > 0 {
			weights[k] = float64(kinds[k].n) * rep.writes[k] / float64(rep.n[k])
			sum += weights[k]
		}
	}
	var sizes []int
	for k := range numKinds {
		if sum == 0 || weights[k] == 0 {
			continue
		}
		size := len(tagRecord)
		switch k {
		case kCreate, kUpdate:
			size = polSize
		case kDelete:
			size = 0
		}
		for range int(total*weights[k]/sum + 0.5) {
			sizes = append(sizes, size)
		}
	}
	r := rng(b.seed, streamReplay, 9)
	r.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// traced is the per-layer run: one set-up, traced closed-loop and
// open-loop phases between two halves of an untraced closed-loop phase
// (the tracing-overhead baseline), a sampled replay on core.Instance,
// and side measurements of each layer's public functions on the run's
// own inputs.
func (b *bench) traced(ctx context.Context) (outcome, error) {
	phaseD := b.secs(1.0 / 3)
	tr := &tracer{}
	scheds := b.schedules(b.spec.newWorkload(), streamOpen, phaseD)
	w, _, err := b.setup(ctx, filepath.Join(b.dir, "system"), tr, attestsPerPolicy(scheds), 2*phaseD)
	if err != nil {
		return outcome{}, err
	}
	defer closeWorkload(w)
	runtime.GC()

	// The untraced baseline runs in two halves around the traced phases,
	// so warm-up and drift do not favour either side of the overhead ratio.
	baseA := closedLoop(ctx, b.gens(w, streamClosed), phaseD/2, w.exec, nil)
	w.endPhase()

	tr.on.Store(true)
	p0, proc0 := w.probe(), readProc()
	fw, isFleet := w.(*fleetWL)
	lagStop, lagDone := make(chan struct{}), make(chan float64, 1)
	if isFleet {
		go sampleLag(fw, lagStop, lagDone)
	} else {
		lagDone <- 0
	}
	t1 := closedLoop(ctx, b.gens(w, streamTraced), phaseD, w.exec, tr)
	w.endPhase()
	t2 := openLoop(ctx, scheds, w.exec, tr)
	w.endPhase()
	proc1, p1 := readProc(), w.probe()
	tr.on.Store(false)
	close(lagStop)
	lag := <-lagDone

	baseB := closedLoop(ctx, b.gens(w, streamClosed<<8|streamTraced), phaseD/2, w.exec, nil)
	w.endPhase()
	base := phaseResult{
		samples: append(append([]sample(nil), baseA.samples...), baseB.samples...),
		wall:    baseA.wall + baseB.wall,
		errs:    append(append([]error(nil), baseA.errs...), baseB.errs...),
	}
	reportErrs("untraced closed loop", base)
	reportErrs("traced closed loop", t1)
	reportErrs("traced open loop", t2)

	out := outcome{res: results{}}
	out.attempted = len(base.samples) + len(t1.samples) + len(t2.samples)
	out.failed = base.failures() + t1.failures() + t2.failures()
	out.correct = out.failed == 0
	if err := w.finalCheck(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: final check:", err)
		out.correct = false
	}

	// Side measurements, after the checks: the replay mutates state.
	in := w.layers()
	rep, err := b.replay(ctx, w)
	if err != nil {
		return outcome{}, err
	}
	side := filepath.Join(b.dir, "side")
	if err := os.MkdirAll(side, 0o700); err != nil {
		return outcome{}, err
	}
	tr.mu.Lock()
	kinds, dtos := tr.kinds, tr.dtos
	tr.mu.Unlock()
	enc, dec, err := wireTimes(dtos)
	if err != nil {
		return outcome{}, fmt.Errorf("wire timing: %w", err)
	}
	validate, compile, decode, digest, err := policyTimes(in.policies)
	if err != nil {
		return outcome{}, fmt.Errorf("policy timing: %w", err)
	}
	bind, err := verifyBindingTime(in.evidence, in.qk)
	if err != nil {
		return outcome{}, fmt.Errorf("binding timing: %w", err)
	}
	tr.boardMu.Lock()
	verdicts := tr.verdicts
	tr.boardMu.Unlock()
	evaluate, verifyVerdict, err := boardTimes(ctx, in, verdicts)
	if err != nil {
		return outcome{}, fmt.Errorf("board timing: %w", err)
	}
	sizes := b.writeSizes(kinds, rep, in.policies)
	put, perCommit, err := kvdbTimes(filepath.Join(side, "kvdb"), sizes)
	if err != nil {
		return outcome{}, fmt.Errorf("kvdb timing: %w", err)
	}
	fsync, err := fsyncTime(side)
	if err != nil {
		return outcome{}, fmt.Errorf("fsync timing: %w", err)
	}
	audit, err := auditTime(side, in.policies)
	if err != nil {
		return outcome{}, fmt.Errorf("audit timing: %w", err)
	}
	barrier, barrierN := 0.0, 0
	if isFleet {
		r1 := &fleetWL{replication: 1}
		if err := r1.setup(ctx, &setupEnv{dir: filepath.Join(b.dir, "replication-1"), seed: b.seed}); err != nil {
			closeWorkload(r1)
			return outcome{}, fmt.Errorf("replication-1 fleet: %w", err)
		}
		one := closedLoop(ctx, b.gens(r1, streamBarrier), phaseD, r1.exec, nil)
		r1.endPhase()
		closeWorkload(r1)
		if one.failures() > 0 {
			reportErrs("replication-1 fleet", one)
			return outcome{}, fmt.Errorf("replication-1 fleet: %d ops failed", one.failures())
		}
		barrier = ms(writeP50(base.samples) - writeP50(one.samples))
		barrierN = len(base.samples) + len(one.samples)
	}

	// Per-layer figures over the traced phases.
	d := p1.since(p0)
	traced := append(append([]sample(nil), t1.samples...), t2.samples...)
	n := float64(len(traced))
	var tot kindTrace
	var encSum, decSum, instSum float64
	for k := range numKinds {
		kt := kinds[k]
		tot.n += kt.n
		tot.client += kt.client
		tot.tls += kt.tls
		tot.handshakes += kt.handshakes
		tot.conns += kt.conns
		tot.reused += kt.reused
		encSum += float64(kt.n) * us(enc[k])
		decSum += float64(kt.n) * us(dec[k])
		if rep.n[k] > 0 {
			instSum += float64(kt.n) * ms(rep.time[k]/time.Duration(rep.n[k]))
		}
	}
	nt := float64(tot.n)
	clientMS := ratio(ms(tot.client), nt)
	serverSum, serverCount := 0.0, 0.0
	for _, r := range routesOf(kinds) {
		serverSum += d.reqSum[r]
		serverCount += d.reqCount[r]
	}
	serverMS := ratio(serverSum*1000, serverCount)
	instMS := ratio(instSum, nt)
	res := out.res
	res.set("core.client_ms", clientMS, tot.n)
	res.set("core.server_ms", serverMS, int(serverCount))
	res.set("core.transport_ms", clientMS-serverMS, tot.n)
	res.set("core.tls_handshake_ms", ratio(ms(tot.tls), float64(tot.handshakes)), tot.handshakes)
	res.set("core.conn_reuse_ratio", ratio(float64(tot.reused), float64(tot.conns)), tot.conns)
	res.set("core.resp_bytes_per_op", ratio(float64(tr.respBytes.Load()), n), len(traced))
	res.set("core.instance_ms", instMS, sum(rep.n[:]))
	res.set("core.edge_ms", serverMS-instMS, int(serverCount))
	res.set("core.cache_hit_ratio", ratio(d.cacheHits, d.cacheHits+d.cacheMisses), int(d.cacheHits+d.cacheMisses))
	res.set("core.cache_invalidations_per_kop", 1000*ratio(d.cacheInval, n), len(traced))
	res.set("core.conflict_retries_per_kop", 1000*ratio(d.retries, n), len(traced))
	res.set("wire.encode_us", ratio(encSum, nt), capturedCount(dtos))
	res.set("wire.decode_us", ratio(decSum, nt), capturedCount(dtos))
	np := len(in.policies)
	res.set("policy.validate_us", us(validate), np)
	res.set("policy.compile_us", us(compile), np)
	res.set("policy.decode_us", us(decode), np)
	res.set("board.digest_us", us(digest), np)
	calls, rtt := tr.boardCalls()
	members := max(1, len(in.board.Members))
	res.set("board.approvals_per_op", ratio(float64(calls)/float64(members), n), calls)
	res.set("board.member_rtt_ms", ratio(ms(rtt), float64(calls)), calls)
	res.set("board.evaluate_ms", ms(evaluate), 20)
	res.set("board.verify_verdict_us", us(verifyVerdict), len(verdicts))
	res.set("attest.verify_binding_us", us(bind), len(in.evidence))
	res.set("kvdb.writes_per_op", ratio(d.dbSeq, n), len(traced))
	res.set("kvdb.reads_per_op", ratio(d.dbReads, n), len(traced))
	res.set("kvdb.put_ms", ms(put), len(sizes))
	res.set("kvdb.records_per_commit", perCommit, len(sizes))
	res.set("kvdb.fsync_ms", ms(fsync), 30)
	res.set("obs.audit_append_us", us(audit), 300)
	res.set("obs.audit_records_per_op", ratio(d.audit, n), len(traced))
	res.set("fleet.barrier_ms", barrier, barrierN)
	res.set("fleet.repl_lag_entries", lag, len(traced))
	res.set("fleet.degraded_per_kop", 1000*ratio(d.degraded, n), len(traced))
	res.set("fleet.repl_verified_per_op", ratio(d.verified, n), len(traced))
	wall := proc1.at.Sub(proc0.at).Seconds()
	cpu := (proc1.cpu - proc0.cpu).Seconds()
	res.set("proc.cpu_us_per_op", 1e6*ratio(cpu, n), len(traced))
	res.set("proc.cpu_util", ratio(cpu, wall*float64(runtime.NumCPU())), 1)
	res.set("go.alloc_kb_per_op", ratio((proc1.allocs-proc0.allocs)/1024, n), len(traced))
	res.set("go.gc_cycles_per_kop", 1000*ratio(proc1.gcCycles-proc0.gcCycles, n), len(traced))
	res.set("go.gc_cpu_ratio", ratio(proc1.gcCPU-proc0.gcCPU, proc1.goCPU-proc0.goCPU), 1)
	res.set("gen.late_p99_ms", ms(latePercentile(t2.samples, 0.99)), len(t2.samples))
	t1OK := float64(len(t1.samples) - t1.failures())
	baseOK := float64(len(base.samples) - base.failures())
	res.set("trace.overhead_ratio", ratio(t1OK/t1.wall.Seconds(), baseOK/base.wall.Seconds()), len(t1.samples))

	// Reconciliation: per route, client time = TLS handshakes + response
	// decode + server time (edge + instance) + what no layer accounts for.
	unattributed := 0.0
	for _, r := range routesOf(kinds) {
		var rk kindTrace
		var kindNames []string
		decR, instR := 0.0, 0.0
		for k := range numKinds {
			if routeOf(k) != r || kinds[k].n == 0 {
				continue
			}
			kt := kinds[k]
			kindNames = append(kindNames, k.String())
			rk.n += kt.n
			rk.client += kt.client
			rk.tls += kt.tls
			decR += float64(kt.n) * ms(dec[k])
			if rep.n[k] > 0 {
				instR += float64(kt.n) * ms(rep.time[k]/time.Duration(rep.n[k]))
			}
		}
		rn := float64(rk.n)
		client, tls := ms(rk.client)/rn, ms(rk.tls)/rn
		decR, instR = decR/rn, instR/rn
		server := ratio(d.reqSum[r]*1000, d.reqCount[r])
		rest := client - tls - decR - server
		unattributed += rest * rn
		out.lines = append(out.lines, fmt.Sprintf(
			"reconcile route=%s kinds=%v n=%d client_ms=%.4f = tls %.4f + decode %.4f + server %.4f (edge %.4f + instance %.4f) + unattributed %.4f (ratio %.3f)",
			r, kindNames, rk.n, client, tls, decR, server, server-instR, instR, rest, ratio(rest, client)))
	}
	res.set("trace.unattributed_ratio", ratio(unattributed, ms(tot.client)), tot.n)
	for _, err := range shapeErrors(b.spec.name, res) {
		fmt.Fprintln(os.Stderr, "perfbench: workload shape:", err)
		out.correct = false
	}
	out.lines = append(out.lines, fmt.Sprintf("layers: replayed %d ops on core.Instance; untraced ops_s %.1f, traced ops_s %.1f",
		sum(rep.n[:]), baseOK/base.wall.Seconds(), t1OK/t1.wall.Seconds()))
	return out, nil
}

// shapeErrors checks that a workload loads exactly the layers it claims
// to: board approval only on governed-churn, no database writes on the
// read path and exactly one per op on the application lifecycle, and
// fleet figures only on fleet-replicated.
func shapeErrors(workload string, res results) []error {
	var errs []error
	want := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	approvals := res["board.approvals_per_op"].value
	if workload == "governed-churn" {
		want(approvals > 0, "board.approvals_per_op is %v, want > 0", approvals)
	} else {
		want(approvals == 0, "board.approvals_per_op is %v, want 0", approvals)
	}
	switch writes := res["kvdb.writes_per_op"].value; workload {
	case "app-config-read":
		want(writes == 0, "kvdb.writes_per_op is %v, want 0", writes)
	case "app-lifecycle":
		want(writes == 1, "kvdb.writes_per_op is %v, want exactly 1", writes)
	}
	for _, d := range perLayer {
		if !strings.HasPrefix(d.name, "fleet.") {
			continue
		}
		v := res[d.name].value
		if workload != "fleet-replicated" {
			want(v == 0, "%s is %v off the fleet", d.name, v)
		}
	}
	if workload == "fleet-replicated" {
		v := res["fleet.repl_verified_per_op"].value
		want(v > 0, "fleet.repl_verified_per_op is %v, want > 0", v)
	}
	return errs
}

// sampleLag averages the fleet's replication lag every 5 ms until stop
// is closed, then sends the mean on done.
func sampleLag(w *fleetWL, stop <-chan struct{}, done chan<- float64) {
	sum, n := 0.0, 0
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			done <- ratio(sum, float64(n))
			return
		case <-t.C:
			sum += w.lag()
			n++
		}
	}
}

// routesOf lists the routes serving the traced kinds, in kind order.
func routesOf(kinds [numKinds]kindTrace) []string {
	var out []string
	seen := map[string]bool{}
	for k := range numKinds {
		if r := routeOf(k); kinds[k].n > 0 && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

func capturedCount(dtos [numKinds][]any) int {
	n := 0
	for _, d := range dtos {
		n += len(d)
	}
	return n
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
