package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"palaemon/internal/board"
	"palaemon/internal/obs"
	"palaemon/internal/policy"
)

// tracer records spans and counts from the benchmark's side of each layer
// boundary: a root span per op, TLS handshakes and connection reuse from
// httptrace, response bytes from a ClientOptions.WrapTransport reader,
// response DTOs for the wire timing, and board member calls from the
// public Evaluator.Client.Transport. Nothing inside the program is
// instrumented. All methods are nil-safe: a nil *tracer is tracing off.
type tracer struct {
	// on gates recording, so setup and the untraced comparison phase of a
	// traced run are not counted.
	on atomic.Bool

	mu    sync.Mutex
	kinds [numKinds]kindTrace // palaemon:guardedby mu
	dtos  [numKinds][]any     // palaemon:guardedby mu
	seen  [numKinds]int       // palaemon:guardedby mu

	respBytes atomic.Int64

	boardMu  sync.Mutex
	members  map[string]policy.BoardMember // by URL, fixed at wrap time
	calls    int                           // palaemon:guardedby boardMu
	rtt      time.Duration                 // palaemon:guardedby boardMu
	verdicts []capturedVerdict             // palaemon:guardedby boardMu
}

// kindTrace aggregates one op kind's spans.
type kindTrace struct {
	n          int
	client     time.Duration
	tls        time.Duration
	handshakes int
	conns      int
	reused     int
}

type capturedVerdict struct {
	req    board.Request
	v      board.Verdict
	member policy.BoardMember
}

const maxCaptured = 64

func (t *tracer) begin(ctx context.Context, k kind) context.Context {
	var hs time.Time
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			t.mu.Lock()
			t.kinds[k].conns++
			if info.Reused {
				t.kinds[k].reused++
			}
			t.mu.Unlock()
		},
		TLSHandshakeStart: func() { hs = time.Now() },
		TLSHandshakeDone: func(tls.ConnectionState, error) {
			d := time.Since(hs)
			t.mu.Lock()
			t.kinds[k].tls += d
			t.kinds[k].handshakes++
			t.mu.Unlock()
		},
	})
}

func (t *tracer) end(k kind, d time.Duration) {
	t.mu.Lock()
	t.kinds[k].n++
	t.kinds[k].client += d
	t.mu.Unlock()
}

// capture keeps every fourth response DTO of a kind, up to maxCaptured,
// for the wire encode/decode timing.
func (t *tracer) capture(k kind, v any) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	if t.seen[k]%4 == 0 && len(t.dtos[k]) < maxCaptured {
		t.dtos[k] = append(t.dtos[k], v)
	}
	t.seen[k]++
	t.mu.Unlock()
}

// wrapTransport returns the ClientOptions.WrapTransport hook counting
// response bytes; nil when tracing is off.
func (t *tracer) wrapTransport() func(http.RoundTripper) http.RoundTripper {
	if t == nil {
		return nil
	}
	return func(next http.RoundTripper) http.RoundTripper {
		return roundTripFunc(func(req *http.Request) (*http.Response, error) {
			resp, err := next.RoundTrip(req)
			if err == nil && t.on.Load() {
				resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.respBytes}
			}
			return resp, err
		})
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// wrapBoard times every member call made through the evaluator's public
// HTTP client and keeps a sample of signed verdicts for VerifyVerdict.
func (t *tracer) wrapBoard(ev *board.Evaluator, b policy.Board) {
	if t == nil {
		return
	}
	t.members = make(map[string]policy.BoardMember, len(b.Members))
	for _, m := range b.Members {
		t.members[m.URL] = m
	}
	next := ev.Client.Transport
	ev.Client.Transport = roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return next.RoundTrip(req)
		}
		var reqBody []byte
		if req.GetBody != nil {
			if rc, err := req.GetBody(); err == nil {
				reqBody, _ = io.ReadAll(rc)
			}
		}
		start := time.Now()
		resp, err := next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(raw))
		d := time.Since(start)
		t.boardMu.Lock()
		defer t.boardMu.Unlock()
		t.calls++
		t.rtt += d
		if rerr == nil && len(t.verdicts) < maxCaptured {
			var c capturedVerdict
			member, ok := t.members[req.URL.String()]
			if ok && json.Unmarshal(reqBody, &c.req) == nil && json.Unmarshal(raw, &c.v) == nil {
				c.member = member
				t.verdicts = append(t.verdicts, c)
			}
		}
		return resp, nil
	})
}

// boardCalls returns the member calls seen and their total round trip.
func (t *tracer) boardCalls() (int, time.Duration) {
	t.boardMu.Lock()
	defer t.boardMu.Unlock()
	return t.calls, t.rtt
}

// probe is one reading of the server-side counters, summed over the
// instances of a workload.
type probe struct {
	cacheHits, cacheMisses, cacheInval float64
	dbReads, dbSeq, audit              float64
	verified, degraded                 float64
	// retries counts ops re-issued after a conflict.
	retries float64
	// reqSum (seconds) and reqCount of palaemon_request_seconds, by route.
	reqSum, reqCount map[string]float64
}

func readProbe(regs []*obs.Registry) probe {
	p := probe{reqSum: map[string]float64{}, reqCount: map[string]float64{}}
	for _, reg := range regs {
		for _, s := range reg.Snapshot() {
			switch s.Name {
			case "palaemon_policy_cache_hits_total":
				p.cacheHits += s.Value
			case "palaemon_policy_cache_misses_total":
				p.cacheMisses += s.Value
			case "palaemon_policy_cache_invalidations_total":
				p.cacheInval += s.Value
			case "palaemon_db_reads_total":
				p.dbReads += s.Value
			case "palaemon_db_seq":
				p.dbSeq += s.Value
			case "palaemon_audit_records_total":
				p.audit += s.Value
			case "palaemon_request_seconds_sum":
				p.reqSum[route(s.Labels)] += s.Value
			case "palaemon_request_seconds_count":
				p.reqCount[route(s.Labels)] += s.Value
			}
		}
	}
	return p
}

func route(labels []obs.Label) string {
	for _, l := range labels {
		if l.Name == "route" {
			return l.Value
		}
	}
	return ""
}

// since returns the counter deltas from an earlier reading.
func (p probe) since(prev probe) probe {
	d := probe{
		cacheHits: p.cacheHits - prev.cacheHits, cacheMisses: p.cacheMisses - prev.cacheMisses,
		cacheInval: p.cacheInval - prev.cacheInval, dbReads: p.dbReads - prev.dbReads,
		dbSeq: p.dbSeq - prev.dbSeq, audit: p.audit - prev.audit,
		verified: p.verified - prev.verified, degraded: p.degraded - prev.degraded,
		retries: p.retries - prev.retries,
		reqSum:  map[string]float64{}, reqCount: map[string]float64{},
	}
	for r, v := range p.reqSum {
		d.reqSum[r] = v - prev.reqSum[r]
		d.reqCount[r] = p.reqCount[r] - prev.reqCount[r]
	}
	return d
}

// routeOf maps an op kind to the server route that serves it, the
// granularity of palaemon_request_seconds.
func routeOf(k kind) string {
	switch k {
	case kFetch:
		return "/v2/policies/{name}/secrets"
	case kRead, kUpdate, kDelete:
		return "/v2/policies/{name}"
	case kCreate:
		return "/v2/policies"
	case kAttest:
		return "/v2/attest"
	case kPushTag:
		return "/v2/tags"
	default:
		return "/v2/exit"
	}
}
