package main

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"palaemon"
	"palaemon/internal/attest"
	"palaemon/internal/board"
	"palaemon/internal/core"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/fleet"
	"palaemon/internal/fspf"
	"palaemon/internal/obs"
	"palaemon/internal/policy"
	"palaemon/internal/sgx"
	"palaemon/internal/wire"
)

// workload is one traffic mix. Its generator depends on the seed alone,
// so schedules can be drawn (and tested) without a running system.
type workload interface {
	// gen returns worker's op stream for one phase.
	gen(phase uint64, worker int, r *rand.Rand) func() op
	// setup boots the system and loads it: everything setup_s measures.
	setup(ctx context.Context, env *setupEnv) error
	exec(ctx context.Context, worker int, o op) (func() error, error)
	// endPhase drops per-worker state an interrupted phase left behind.
	endPhase()
	// useLocal routes exec to the in-process instance (traced replay).
	useLocal() error
	// finalCheck verifies end-of-run invariants.
	finalCheck(ctx context.Context) error
	// probe reads the server-side counters.
	probe() probe
	// layers feeds workload-specific inputs to the side measurements.
	layers() layerInputs
	close() error
}

// setupEnv is what setup needs from the run.
type setupEnv struct {
	dir  string
	seed uint64
	tr   *tracer // nil when untraced
	// opens counts the attests per policy in the open-loop schedules
	// (sizes the lifecycle evidence pool).
	opens map[int]int
	// closedSeconds sizes the closed-loop share of the pool.
	closedSeconds float64
}

// spec is a workload's fixed description.
type spec struct {
	name string
	// rate is the open-loop arrival rate in ops/s over both workers:
	// about half the closed-loop ops_s measured on the commit that
	// introduced the benchmark (2 cores).
	rate        float64
	newWorkload func() workload
}

var specs = []spec{
	{"app-config-read", 5300, func() workload { return &configRead{} }},
	{"app-lifecycle", 1250, func() workload { return &lifecycle{} }},
	{"governed-churn", 250, func() workload { return &churn{} }},
	{"fleet-replicated", 1350, func() workload { return &fleetWL{replication: 2} }},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// --- shared single-instance plumbing ----------------------------------------

// single is a palaemond-style deployment plus one stakeholder identity.
type single struct {
	dep  *palaemon.Deployment
	cert *tls.Certificate
	id   core.ClientID
	tr   *tracer
	// checkReads counts the kvdb reads the benchmark's own output checks
	// cause, so they are not charged to the workload.
	checkReads atomic.Int64
}

func (s *single) boot(env *setupEnv, ev *board.Evaluator) error {
	s.tr = env.tr
	dep, err := palaemon.StartService(palaemon.DeploymentOptions{
		DataDir:       env.dir,
		Evaluator:     ev,
		GroupCommit:   true,
		Observability: true,
	})
	if err != nil {
		return fmt.Errorf("start service: %w", err)
	}
	s.dep = dep
	s.cert, s.id, err = core.NewClientCertificate("perfbench-stakeholder")
	return err
}

// client returns a keep-alive stakeholder client pooling up to conns
// connections; cert nil means an application runtime without one.
func (s *single) client(cert *tls.Certificate, conns int) *core.Client {
	return core.NewClient(core.ClientOptions{
		BaseURL:       s.dep.URL(),
		Roots:         s.dep.Authority.Root().Pool(),
		Certificate:   cert,
		MaxIdleConns:  conns,
		Timeout:       30 * time.Second,
		WrapTransport: s.tr.wrapTransport(),
	})
}

func (s *single) local() localAPI {
	return localAPI{Local: core.Local{Inst: s.dep.Instance, ID: s.id}}
}

func (s *single) probe() probe {
	p := readProbe([]*obs.Registry{s.dep.Obs.Metrics})
	p.dbReads -= float64(s.checkReads.Load())
	return p
}

func (s *single) close() error {
	if s.dep == nil {
		return nil
	}
	return s.dep.Close()
}

// appBinary is the seeded application every policy permits.
func appBinary(r *rand.Rand) sgx.Binary {
	code := make([]byte, 64)
	for i := range code {
		code[i] = byte(r.Uint32())
	}
	return sgx.Binary{Name: "perfbench-app", Code: code}
}

// forEach runs f over n items on two goroutines (the benchmark's client
// concurrency) and returns the first error.
func forEach(n int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		errMu sync.Mutex
		first error
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := f(i); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func sameSecrets(name string, got, want map[string]string) error {
	if !maps.Equal(got, want) {
		return fmt.Errorf("%s: fetched %d secrets that differ from the %d recorded", name, len(got), len(want))
	}
	return nil
}

// --- app-config-read ---------------------------------------------------------

const (
	cfgPolicies = 64
	cfgSecrets  = 32
)

// configRead is the pure read path: secret fetches and conditional
// reads of unchanging policies by one identity on 2 connections.
type configRead struct {
	single
	api      [2]policyAPI
	pols     []*policy.Policy
	secrets  []map[string]string
	createID []uint64
	rev      []uint64
}

func (w *configRead) gen(_ uint64, _ int, r *rand.Rand) func() op {
	return func() op {
		o := op{kind: kFetch, pol: r.IntN(cfgPolicies)}
		if r.Float64() >= 0.75 {
			o.kind = kRead
		}
		return o
	}
}

func cfgPolicy(r *rand.Rand, i int, mre sgx.Measurement) *policy.Policy {
	p := &policy.Policy{Name: fmt.Sprintf("cfg-%02d", i)}
	for j := range cfgSecrets {
		p.Secrets = append(p.Secrets, policy.Secret{
			Name: fmt.Sprintf("s%02d", j), Type: policy.SecretRandom, SizeBytes: 16 + r.IntN(33),
		})
	}
	p.Services = []policy.Service{{
		Name:       "app",
		Command:    fmt.Sprintf("serve --port %d --db-pass $$s%02d", 8000+r.IntN(1000), r.IntN(cfgSecrets)),
		MREnclaves: []sgx.Measurement{mre},
		Environment: map[string]string{
			"API_TOKEN": fmt.Sprintf("$$s%02d", r.IntN(cfgSecrets)),
			"REGION":    fmt.Sprintf("eu-%d", r.IntN(9)),
		},
		InjectionFiles: []policy.InjectionFile{{
			Path:     "/etc/app.conf",
			Template: fmt.Sprintf("key = $$s%02d\ncert = $$s%02d\n", r.IntN(cfgSecrets), r.IntN(cfgSecrets)),
		}},
	}}
	return p
}

func (w *configRead) setup(ctx context.Context, env *setupEnv) error {
	if err := w.boot(env, nil); err != nil {
		return err
	}
	cli := w.client(w.cert, 2)
	w.api = [2]policyAPI{clientAPI{cli}, clientAPI{cli}}
	r := rng(env.seed, streamSetup, 0)
	mre := appBinary(r).Measure()
	n := cfgPolicies
	w.pols = make([]*policy.Policy, n)
	for i := range w.pols {
		w.pols[i] = cfgPolicy(r, i, mre)
	}
	w.secrets = make([]map[string]string, n)
	w.createID = make([]uint64, n)
	w.rev = make([]uint64, n)
	return forEach(n, func(i int) error {
		name := w.pols[i].Name
		if err := cli.CreatePolicy(ctx, w.pols[i]); err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		got, err := cli.ReadPolicy(ctx, name)
		if err != nil {
			return fmt.Errorf("read %s: %w", name, err)
		}
		w.pols[i], w.secrets[i], w.createID[i], w.rev[i] = got, got.SecretValues(), got.CreateID, got.Revision
		// Warm-up: the policy cache and both pooled connections.
		if _, err := cli.FetchSecrets(ctx, name, nil, nil); err != nil {
			return fmt.Errorf("warm %s: %w", name, err)
		}
		return nil
	})
}

func (w *configRead) exec(ctx context.Context, wk int, o op) (func() error, error) {
	name := w.pols[o.pol].Name
	if o.kind == kFetch {
		got, err := w.api[wk].FetchSecrets(ctx, name, nil)
		if err != nil {
			return nil, err
		}
		w.tr.capture(kFetch, &wire.SecretsResponse{Secrets: got})
		return func() error { return sameSecrets(name, got, w.secrets[o.pol]) }, nil
	}
	_, modified, err := w.api[wk].ReadPolicyIfChanged(ctx, name, w.createID[o.pol], w.rev[o.pol])
	if err != nil {
		return nil, err
	}
	return func() error {
		if modified {
			return fmt.Errorf("%s: conditional read of an unchanged policy returned a body", name)
		}
		return nil
	}, nil
}

func (w *configRead) endPhase() {}

func (w *configRead) useLocal() error {
	w.api = [2]policyAPI{w.local(), w.local()}
	return nil
}

func (w *configRead) finalCheck(context.Context) error { return nil }

func (w *configRead) layers() layerInputs {
	return layerInputs{policies: w.pols}
}

// --- app-lifecycle -----------------------------------------------------------

const (
	lcPolicies = 16
	lcPushes   = 4
	// lcRunsPerSecond sizes the closed-loop evidence pool; a faster
	// system reuses evidence from the start of the pool (reported).
	lcRunsPerSecond = 800
)

// lifecycle is the Fig 11 hot path: each application run attests on a
// fresh TLS connection, pushes tags, and exits.
type lifecycle struct {
	single
	names    []string
	cmds     []string
	qk       ed25519.PublicKey
	enclave  *sgx.Enclave
	evidence [][]attest.Evidence
	// Policies are split between the workers (p%2 == worker), so the
	// per-policy state below has one writer.
	nextEv []int
	epochs []uint64
	reused atomic.Int64
	runs   [2]lcRun
	local  bool
}

// lcRun is a worker's application run in progress.
type lcRun struct {
	cli   *core.Client
	tms   core.TMS
	token string
	tag   fspf.Tag
}

func (w *lifecycle) gen(_ uint64, worker int, r *rand.Rand) func() op {
	step, pol := 0, 0
	return func() op {
		var k kind
		switch step {
		case 0:
			pol = worker + 2*r.IntN(lcPolicies/2)
			k = kAttest
		case lcPushes + 1:
			k = kExit
		default:
			k = kPushTag
		}
		step = (step + 1) % (lcPushes + 2)
		return op{kind: k, pol: pol, val: r.Uint64()}
	}
}

func tagOf(v uint64) fspf.Tag {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return fspf.Tag(sha256.Sum256(b[:]))
}

// sessionKey derives an application session key from the seed stream.
func sessionKey(r *rand.Rand) ed25519.PublicKey {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(r.Uint32())
	}
	return ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
}

func (w *lifecycle) setup(ctx context.Context, env *setupEnv) error {
	if err := w.boot(env, nil); err != nil {
		return err
	}
	r := rng(env.seed, streamSetup, 0)
	bin := appBinary(r)
	cli := w.client(w.cert, 2)
	defer cli.CloseIdle()
	w.names = make([]string, lcPolicies)
	w.cmds = make([]string, lcPolicies)
	pols := make([]*policy.Policy, lcPolicies)
	for i := range pols {
		pols[i] = &policy.Policy{
			Name: fmt.Sprintf("app-%02d", i),
			Services: []policy.Service{{
				Name:        "app",
				Command:     fmt.Sprintf("worker --job %d --key $$k0", r.IntN(1<<20)),
				MREnclaves:  []sgx.Measurement{bin.Measure()},
				Environment: map[string]string{"TOKEN": "$$k1"},
			}},
			Secrets: []policy.Secret{
				{Name: "k0", Type: policy.SecretRandom},
				{Name: "k1", Type: policy.SecretRandom},
			},
		}
		w.names[i] = pols[i].Name
	}
	if err := forEach(lcPolicies, func(i int) error {
		if err := cli.CreatePolicy(ctx, pols[i]); err != nil {
			return fmt.Errorf("create %s: %w", w.names[i], err)
		}
		got, err := cli.ReadPolicy(ctx, w.names[i])
		if err != nil {
			return fmt.Errorf("read %s: %w", w.names[i], err)
		}
		w.cmds[i] = policy.Substitute(pols[i].Services[0].Command, got.SecretValues())
		return nil
	}); err != nil {
		return err
	}
	enclave, err := w.dep.Platform.Launch(bin, sgx.LaunchOptions{})
	if err != nil {
		return fmt.Errorf("launch app enclave: %w", err)
	}
	w.enclave = enclave
	w.qk = w.dep.Platform.QuotingKey()

	// Evidence for every application run measured, minted now: one fresh
	// session key per attest.
	closedRuns := int(env.closedSeconds*lcRunsPerSecond) / lcPolicies
	w.evidence = make([][]attest.Evidence, lcPolicies)
	for i := range w.evidence {
		n := env.opens[i] + closedRuns + 8
		w.evidence[i] = make([]attest.Evidence, n)
		for j := range w.evidence[i] {
			w.evidence[i][j] = attest.NewEvidence(enclave, w.names[i], "app", sessionKey(r))
		}
	}
	w.nextEv = make([]int, lcPolicies)
	w.epochs = make([]uint64, lcPolicies)

	// Warm-up: each policy's first attestation mints its volume key (a
	// policy write the measured runs must not pay), then exits cleanly.
	return forEach(lcPolicies, func(i int) error {
		ctx := context.Background()
		app := w.client(nil, 1)
		defer app.CloseIdle()
		cfg, err := app.Attest(ctx, w.takeEvidence(i), w.qk, nil)
		if err != nil {
			return fmt.Errorf("warm-up attest %s: %w", w.names[i], err)
		}
		w.epochs[i] = cfg.Epoch
		return app.NotifyExit(ctx, cfg.SessionToken, fspf.Tag{})
	})
}

func (w *lifecycle) takeEvidence(pol int) attest.Evidence {
	pool := w.evidence[pol]
	i := w.nextEv[pol]
	w.nextEv[pol]++
	if i >= len(pool) {
		w.reused.Add(1)
		i %= len(pool)
	}
	return pool[i]
}

func (w *lifecycle) exec(ctx context.Context, wk int, o op) (func() error, error) {
	run := &w.runs[wk]
	name := w.names[o.pol]
	switch o.kind {
	case kAttest:
		w.closeRun(run)
		if w.local {
			run.tms = &core.Local{Inst: w.dep.Instance}
		} else {
			run.cli = w.client(nil, 1)
			run.tms = run.cli
		}
		prev := w.epochs[o.pol]
		cfg, err := run.tms.Attest(ctx, w.takeEvidence(o.pol), w.qk, nil)
		if err != nil {
			return nil, err
		}
		w.epochs[o.pol] = cfg.Epoch
		run.token = cfg.SessionToken
		w.tr.capture(kAttest, cfg)
		return func() error {
			if cfg.Command != w.cmds[o.pol] {
				return fmt.Errorf("%s: attest released command %q, want %q", name, cfg.Command, w.cmds[o.pol])
			}
			if cfg.Epoch <= prev {
				return fmt.Errorf("%s: attest released epoch %d after %d", name, cfg.Epoch, prev)
			}
			return nil
		}, nil
	case kPushTag:
		if run.tms == nil {
			return nil, errors.New("tag push outside an application run")
		}
		run.tag = tagOf(o.val)
		if err := run.tms.PushTag(ctx, run.token, run.tag, nil); err != nil {
			return nil, err
		}
		w.tr.capture(kPushTag, &wire.OKResponse{OK: true})
		return nil, nil
	default: // kExit
		if run.tms == nil {
			return nil, errors.New("exit outside an application run")
		}
		tag := tagOf(o.val)
		err := run.tms.NotifyExit(ctx, run.token, tag)
		w.closeRun(run)
		if err != nil {
			return nil, err
		}
		w.tr.capture(kExit, &wire.OKResponse{OK: true})
		return func() error {
			w.checkReads.Add(1)
			got, err := w.dep.Instance.ExpectedTag(name, "app")
			if err != nil {
				return err
			}
			if got != tag {
				return fmt.Errorf("%s: expected tag after exit is %s, last pushed %s", name, got, tag)
			}
			return nil
		}, nil
	}
}

func (w *lifecycle) closeRun(run *lcRun) {
	if run.cli != nil {
		run.cli.CloseIdle()
	}
	*run = lcRun{}
}

func (w *lifecycle) endPhase() {
	for i := range w.runs {
		w.closeRun(&w.runs[i])
	}
}

func (w *lifecycle) useLocal() error {
	w.local = true
	return nil
}

func (w *lifecycle) finalCheck(context.Context) error { return nil }

func (w *lifecycle) layers() layerInputs {
	in := layerInputs{qk: w.qk}
	for _, pool := range w.evidence {
		in.evidence = append(in.evidence, pool[:min(len(pool), 16)]...)
	}
	for _, name := range w.names {
		if p, err := w.dep.Instance.ReadPolicy(context.Background(), w.id, name); err == nil {
			in.policies = append(in.policies, p)
		}
	}
	return in
}

func (w *lifecycle) close() error {
	w.endPhase()
	if w.enclave != nil {
		w.enclave.Destroy()
	}
	return w.single.close()
}

// --- governed-churn ----------------------------------------------------------

const (
	churnPolicies  = 8
	churnSecrets   = 8
	churnRetries   = 3
	churnMemberLag = 2 * time.Millisecond
)

// churn runs board-governed policies under concurrent updates and reads.
// Worker 0 alternates UpdatePolicy and FetchSecrets; worker 1 alternates
// FetchSecrets and ReadPolicy on the same policies.
type churn struct {
	single
	members []*board.Member
	eval    *board.Evaluator
	board   policy.Board
	api     [2]policyAPI
	retries atomic.Int64

	mu   sync.Mutex
	pols []*churnPolicy // palaemon:guardedby mu
}

// churnPolicy tracks what each revision of a policy holds.
type churnPolicy struct {
	cur   *policy.Policy
	acked uint64
	byRev map[uint64]map[string]string
}

func (w *churn) gen(_ uint64, worker int, r *rand.Rand) func() op {
	step := 0
	return func() op {
		kinds := [2]kind{kUpdate, kFetch}
		if worker == 1 {
			kinds = [2]kind{kFetch, kRead}
		}
		o := op{kind: kinds[step], pol: r.IntN(churnPolicies), val: r.Uint64()}
		step ^= 1
		return o
	}
}

func (w *churn) setup(ctx context.Context, env *setupEnv) error {
	approvalCA, err := cryptoutil.NewCertAuthority("perfbench approval root", 24*time.Hour)
	if err != nil {
		return err
	}
	for i, opts := range [][]board.MemberOption{nil, nil, {board.WithDelay(churnMemberLag)}} {
		m, err := board.NewMember(fmt.Sprintf("member-%d", i+1), opts...)
		if err != nil {
			return err
		}
		w.members = append(w.members, m)
		if _, err := m.Serve(approvalCA); err != nil {
			return err
		}
		w.board.Members = append(w.board.Members, m.Descriptor(false))
	}
	w.board.Threshold = 2
	w.eval = board.NewEvaluator(approvalCA, 5*time.Second)
	env.tr.wrapBoard(w.eval, w.board)
	if err := w.boot(env, w.eval); err != nil {
		return err
	}
	a, b := w.client(w.cert, 1), w.client(w.cert, 1)
	w.api = [2]policyAPI{clientAPI{a}, clientAPI{b}}
	r := rng(env.seed, streamSetup, 0)
	mre := appBinary(r).Measure()
	pols := make([]*policy.Policy, churnPolicies)
	for i := range pols {
		pols[i] = &policy.Policy{
			Name: fmt.Sprintf("gov-%d", i),
			Services: []policy.Service{{
				Name:       "app",
				Command:    "serve --secret $$c0",
				MREnclaves: []sgx.Measurement{mre},
			}},
			Board: w.board,
		}
		for j := range churnSecrets {
			pols[i].Secrets = append(pols[i].Secrets, policy.Secret{
				Name: fmt.Sprintf("c%d", j), Type: policy.SecretExplicit, Value: fmt.Sprintf("%016x", r.Uint64()),
			})
		}
	}
	w.pols = make([]*churnPolicy, churnPolicies)
	return forEach(churnPolicies, func(i int) error {
		name := pols[i].Name
		if err := a.CreatePolicy(ctx, pols[i]); err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		got, err := b.ReadPolicy(ctx, name)
		if err != nil {
			return fmt.Errorf("read %s: %w", name, err)
		}
		if _, err := a.FetchSecrets(ctx, name, nil, nil); err != nil {
			return fmt.Errorf("warm %s: %w", name, err)
		}
		w.mu.Lock()
		w.pols[i] = &churnPolicy{cur: got, acked: got.Revision, byRev: map[uint64]map[string]string{got.Revision: got.SecretValues()}}
		w.mu.Unlock()
		return nil
	})
}

// retry re-issues an op answered with the retryable conflict, at once,
// up to churnRetries times.
func (w *churn) retry(f func() error) error {
	err := f()
	for i := 0; i < churnRetries && errors.Is(err, core.ErrConflict); i++ {
		w.retries.Add(1)
		err = f()
	}
	return err
}

func (w *churn) exec(ctx context.Context, wk int, o op) (func() error, error) {
	w.mu.Lock()
	cp := w.pols[o.pol]
	name, lo := cp.cur.Name, cp.acked
	w.mu.Unlock()
	api := w.api[wk]
	switch o.kind {
	case kUpdate:
		w.mu.Lock()
		next := cp.cur.Clone()
		rev := cp.acked + 1
		s := &next.Secrets[o.val%churnSecrets]
		s.Value = fmt.Sprintf("%016x-r%d", o.val, rev)
		cp.byRev[rev] = next.SecretValues()
		w.mu.Unlock()
		if err := w.retry(func() error { return api.UpdatePolicy(ctx, next) }); err != nil {
			return nil, err
		}
		w.mu.Lock()
		cp.cur, cp.acked = next, rev
		w.mu.Unlock()
		w.tr.capture(kUpdate, &wire.NameResponse{Name: name})
		return nil, nil
	case kFetch:
		var got map[string]string
		err := w.retry(func() (err error) {
			got, err = api.FetchSecrets(ctx, name, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		w.tr.capture(kFetch, &wire.SecretsResponse{Secrets: got})
		return func() error { return w.checkSecrets(cp, name, lo, got) }, nil
	default: // kRead
		var got *policy.Policy
		err := w.retry(func() (err error) {
			got, err = api.ReadPolicy(ctx, name)
			return err
		})
		if err != nil {
			return nil, err
		}
		w.tr.capture(kRead, got)
		return func() error {
			if got.Revision < lo {
				return fmt.Errorf("%s: read revision %d after revision %d was acked", name, got.Revision, lo)
			}
			w.mu.Lock()
			want, ok := cp.byRev[got.Revision]
			w.mu.Unlock()
			if !ok {
				return fmt.Errorf("%s: read unknown revision %d", name, got.Revision)
			}
			return sameSecrets(name, got.SecretValues(), want)
		}, nil
	}
}

// checkSecrets accepts a fetch that returns the secrets of a revision no
// older than the one acked when the fetch started. The writer's own
// fetches see exactly its last acked revision, since it has none in
// flight.
func (w *churn) checkSecrets(cp *churnPolicy, name string, lo uint64, got map[string]string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for rev := lo; rev <= cp.acked+1; rev++ {
		if want, ok := cp.byRev[rev]; ok && maps.Equal(got, want) {
			return nil
		}
	}
	return fmt.Errorf("%s: fetched secrets match no revision from %d on", name, lo)
}

func (w *churn) probe() probe {
	p := w.single.probe()
	p.retries = float64(w.retries.Load())
	return p
}

func (w *churn) endPhase() {}

func (w *churn) useLocal() error {
	w.api = [2]policyAPI{w.local(), w.local()}
	return nil
}

func (w *churn) finalCheck(ctx context.Context) error {
	for i := range w.pols {
		w.mu.Lock()
		cp := w.pols[i]
		name, acked, want := cp.cur.Name, cp.acked, cp.byRev[cp.acked]
		w.mu.Unlock()
		got, err := w.dep.Instance.ReadPolicy(ctx, w.id, name)
		if err != nil {
			return fmt.Errorf("final read %s: %w", name, err)
		}
		if got.Revision != acked {
			return fmt.Errorf("%s: final revision %d, last acked %d", name, got.Revision, acked)
		}
		if err := sameSecrets(name, got.SecretValues(), want); err != nil {
			return err
		}
	}
	return nil
}

func (w *churn) layers() layerInputs {
	in := layerInputs{eval: w.eval, board: w.board}
	w.mu.Lock()
	for _, cp := range w.pols {
		in.policies = append(in.policies, cp.cur)
	}
	w.mu.Unlock()
	return in
}

func (w *churn) close() error {
	err := w.single.close()
	for _, m := range w.members {
		m.Close()
	}
	return err
}

// --- fleet-replicated --------------------------------------------------------

const fleetSecrets = 4

// fleetWL drives a sharded, replicated fleet through fleet.Client: each
// of 2 stakeholders cycles create, update, fetch, delete on its own
// names.
type fleetWL struct {
	replication int
	f           *fleet.Fleet
	tr          *tracer
	api         [2]policyAPI
	cli         [2]*fleet.Client
	// cycle is each worker's policy of the cycle in progress.
	cycle [2]*policy.Policy
	local bool

	mu sync.Mutex
	// live holds every acked live policy: its creator and secrets.
	live map[string]fleetLive // palaemon:guardedby mu
}

type fleetLive struct {
	worker  int
	secrets map[string]string
}

func (w *fleetWL) gen(phase uint64, _ int, r *rand.Rand) func() op {
	step, cycle := 0, int(phase)<<24
	return func() op {
		o := op{kind: [4]kind{kCreate, kUpdate, kFetch, kDelete}[step], pol: cycle, val: r.Uint64()}
		if step++; step == 4 {
			step, cycle = 0, cycle+1
		}
		return o
	}
}

func (w *fleetWL) setup(ctx context.Context, env *setupEnv) error {
	w.tr = env.tr
	f, err := fleet.New(fleet.Options{
		Shards:      2,
		Replication: w.replication,
		DataDir:     env.dir,
		GroupCommit: true,
		Observe:     true,
	})
	if err != nil {
		return fmt.Errorf("start fleet: %w", err)
	}
	w.f = f
	w.live = make(map[string]fleetLive)
	for i := range w.cli {
		c, err := f.NewStakeholderClient(fmt.Sprintf("perfbench-stakeholder-%d", i))
		if err != nil {
			return err
		}
		if err := c.Refresh(ctx); err != nil {
			return err
		}
		w.cli[i], w.api[i] = c, fleetAPI{c}
	}
	// Warm-up: each stakeholder's connections to both shards.
	r := rng(env.seed, streamSetup, 0)
	var warm [2][]*policy.Policy
	for i := range warm {
		for j := range 4 {
			warm[i] = append(warm[i], fleetPolicy(fmt.Sprintf("warm-%d-%d", i, j), r.Uint64()))
		}
	}
	return forEach(2, func(i int) error {
		for _, p := range warm[i] {
			if err := w.api[i].CreatePolicy(ctx, p); err != nil {
				return fmt.Errorf("warm-up create: %w", err)
			}
			if err := w.api[i].DeletePolicy(ctx, p.Name); err != nil {
				return fmt.Errorf("warm-up delete: %w", err)
			}
		}
		return nil
	})
}

func fleetPolicy(name string, v uint64) *policy.Policy {
	p := &policy.Policy{
		Name: name,
		Services: []policy.Service{{
			Name:       "app",
			Command:    "serve --key $$f0",
			MREnclaves: []sgx.Measurement{sha256.Sum256([]byte("perfbench-fleet-app"))},
		}},
	}
	for j := range fleetSecrets {
		p.Secrets = append(p.Secrets, policy.Secret{
			Name: fmt.Sprintf("f%d", j), Type: policy.SecretExplicit, Value: fmt.Sprintf("%016x-%d", v, j),
		})
	}
	return p
}

func (w *fleetWL) exec(ctx context.Context, wk int, o op) (func() error, error) {
	name := fmt.Sprintf("fl-w%d-%x", wk, o.pol)
	if w.local {
		name = "replay-" + name
	}
	api := w.api[wk]
	switch o.kind {
	case kCreate:
		p := fleetPolicy(name, o.val)
		if err := api.CreatePolicy(ctx, p); err != nil {
			return nil, err
		}
		w.cycle[wk] = p
		w.setLive(name, wk, p)
		w.tr.capture(kCreate, &wire.NameResponse{Name: name})
		return nil, nil
	case kUpdate:
		if w.cycle[wk] == nil || w.cycle[wk].Name != name {
			return nil, fmt.Errorf("%s: update before create", name)
		}
		next := w.cycle[wk].Clone()
		next.Secrets[o.val%fleetSecrets].Value = fmt.Sprintf("%016x-u", o.val)
		if err := api.UpdatePolicy(ctx, next); err != nil {
			return nil, err
		}
		w.cycle[wk] = next
		w.setLive(name, wk, next)
		w.tr.capture(kUpdate, &wire.NameResponse{Name: name})
		return nil, nil
	case kFetch:
		got, err := api.FetchSecrets(ctx, name, nil)
		if err != nil {
			return nil, err
		}
		w.tr.capture(kFetch, &wire.SecretsResponse{Secrets: got})
		want := w.cycle[wk].SecretValues()
		return func() error { return sameSecrets(name, got, want) }, nil
	default: // kDelete
		if err := api.DeletePolicy(ctx, name); err != nil {
			return nil, err
		}
		w.mu.Lock()
		delete(w.live, name)
		w.mu.Unlock()
		w.tr.capture(kDelete, &wire.DeleteResponse{Deleted: name})
		return nil, nil
	}
}

func (w *fleetWL) setLive(name string, wk int, p *policy.Policy) {
	w.mu.Lock()
	w.live[name] = fleetLive{worker: wk, secrets: p.SecretValues()}
	w.mu.Unlock()
}

// endPhase forgets the cycle in progress; its policy, if created, stays
// live and is checked at the end.
func (w *fleetWL) endPhase() { w.cycle = [2]*policy.Policy{} }

func (w *fleetWL) useLocal() error {
	_, id, err := core.NewClientCertificate("perfbench-replay")
	if err != nil {
		return err
	}
	owner := func(name string) *core.Instance { return w.f.Instance(w.f.Ring().Owner(name)) }
	l := localAPI{Local: core.Local{ID: id}, owner: owner}
	w.api = [2]policyAPI{l, l}
	w.local = true
	return nil
}

// finalCheck reads every acked live policy back from its owner shard and
// checks each follower has verified everything its primary committed.
func (w *fleetWL) finalCheck(ctx context.Context) error {
	w.mu.Lock()
	live := maps.Clone(w.live)
	w.mu.Unlock()
	for name, l := range live {
		got, err := w.cli[l.worker].ReadPolicy(ctx, name)
		if err != nil {
			return fmt.Errorf("final read %s: %w", name, err)
		}
		if err := sameSecrets(name, got.SecretValues(), l.secrets); err != nil {
			return err
		}
	}
	if w.replication < 2 {
		return nil
	}
	for _, s := range w.f.Shards() {
		verified, seq := w.f.Follower(s).Verified(), w.f.Instance(s).DBSeq()
		if verified < seq {
			return fmt.Errorf("%s: follower verified %d entries, primary committed %d", s, verified, seq)
		}
	}
	return nil
}

func (w *fleetWL) probe() probe {
	var regs []*obs.Registry
	var p probe
	for _, s := range w.f.Shards() {
		regs = append(regs, w.f.Observability(s).Metrics)
		p.degraded += float64(w.f.Degraded(s))
		if fo := w.f.Follower(s); fo != nil {
			p.verified += float64(fo.Verified())
		}
	}
	q := readProbe(regs)
	q.degraded, q.verified = p.degraded, p.verified
	return q
}

// lag is the number of commits the followers trail their primaries by.
func (w *fleetWL) lag() float64 {
	total := 0.0
	for _, s := range w.f.Shards() {
		if fo := w.f.Follower(s); fo != nil {
			total += max(0, float64(w.f.Instance(s).DBSeq())-float64(fo.Pos()))
		}
	}
	return total
}

func (w *fleetWL) layers() layerInputs {
	return layerInputs{policies: []*policy.Policy{fleetPolicy("fl-layers", 1)}}
}

func (w *fleetWL) close() error {
	if w.f != nil {
		w.f.Close()
	}
	return nil
}
