package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (a self-test keeps the two in step).
type metricDef struct {
	name, unit, better string
	// bound is the end-to-end regression bound (share of the parent's
	// median).
	bound float64
	// moves names the end-to-end metric and workload a per-layer metric
	// should move; a later performance claim cites these predictions by name.
	moves string
}

// Per-op-kind p50s (attest_p50_ms, push_tag_p50_ms, fetch_p50_ms,
// read_p50_ms, update_p50_ms) are printed in the report of the workloads
// that issue that kind but are not result metrics: the result must carry
// every end-to-end metric on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ok_ratio", unit: "ratio", better: "higher", bound: 0.01},
	{name: "heap_peak_mb", unit: "MB", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "core.client_ms", unit: "ms", better: "lower", moves: "ops_s, fetch_p50_ms on app-config-read"},
	{name: "core.server_ms", unit: "ms", better: "lower", moves: "ops_s, fetch_p50_ms on app-config-read"},
	{name: "core.transport_ms", unit: "ms", better: "lower", moves: "ops_s, fetch_p50_ms on app-config-read"},
	{name: "core.tls_handshake_ms", unit: "ms", better: "lower", moves: "attest_p50_ms on app-lifecycle"},
	{name: "core.conn_reuse_ratio", unit: "ratio", better: "higher", moves: "attest_p50_ms on app-lifecycle (about 1 on app-config-read)"},
	{name: "core.resp_bytes_per_op", unit: "B/op", better: "lower", moves: "fetch_p50_ms on app-config-read"},
	{name: "core.instance_ms", unit: "ms", better: "lower", moves: "fetch_p50_ms on app-config-read"},
	{name: "core.edge_ms", unit: "ms", better: "lower", moves: "fetch_p50_ms on app-config-read"},
	{name: "core.cache_hit_ratio", unit: "ratio", better: "higher", moves: "read_p50_ms, ok_ratio on governed-churn (about 1 on app-config-read)"},
	{name: "core.cache_invalidations_per_kop", unit: "count/kop", better: "lower", moves: "read_p50_ms, ok_ratio on governed-churn"},
	{name: "core.conflict_retries_per_kop", unit: "count/kop", better: "lower", moves: "read_p50_ms, ok_ratio on governed-churn"},
	{name: "wire.encode_us", unit: "us", better: "lower", moves: "fetch_p50_ms on app-config-read, update_p50_ms on governed-churn"},
	{name: "wire.decode_us", unit: "us", better: "lower", moves: "fetch_p50_ms on app-config-read, update_p50_ms on governed-churn"},
	{name: "policy.validate_us", unit: "us", better: "lower", moves: "update_p50_ms on governed-churn"},
	{name: "policy.compile_us", unit: "us", better: "lower", moves: "fetch_p50_ms on app-config-read, update_p50_ms on governed-churn"},
	{name: "policy.decode_us", unit: "us", better: "lower", moves: "fetch_p50_ms on app-config-read, update_p50_ms on governed-churn"},
	{name: "board.digest_us", unit: "us", better: "lower", moves: "ops_s on app-config-read"},
	{name: "board.approvals_per_op", unit: "count/op", better: "lower", moves: "fetch_p50_ms, update_p50_ms, p99_ms on governed-churn"},
	{name: "board.member_rtt_ms", unit: "ms", better: "lower", moves: "fetch_p50_ms, update_p50_ms, p99_ms on governed-churn"},
	{name: "board.evaluate_ms", unit: "ms", better: "lower", moves: "fetch_p50_ms, update_p50_ms, p99_ms on governed-churn"},
	{name: "board.verify_verdict_us", unit: "us", better: "lower", moves: "fetch_p50_ms, update_p50_ms, p99_ms on governed-churn"},
	{name: "attest.verify_binding_us", unit: "us", better: "lower", moves: "attest_p50_ms on app-lifecycle"},
	{name: "kvdb.writes_per_op", unit: "count/op", better: "lower", moves: "push_tag_p50_ms, ops_s on app-lifecycle; update_p50_ms on fleet-replicated"},
	{name: "kvdb.reads_per_op", unit: "count/op", better: "lower", moves: "push_tag_p50_ms, ops_s on app-lifecycle; update_p50_ms on fleet-replicated"},
	{name: "kvdb.put_ms", unit: "ms", better: "lower", moves: "push_tag_p50_ms, ops_s on app-lifecycle; update_p50_ms on fleet-replicated"},
	{name: "kvdb.records_per_commit", unit: "count", better: "higher", moves: "push_tag_p50_ms, ops_s on app-lifecycle; update_p50_ms on fleet-replicated"},
	{name: "kvdb.fsync_ms", unit: "ms", better: "lower", moves: "push_tag_p50_ms, ops_s on app-lifecycle; update_p50_ms on fleet-replicated"},
	{name: "obs.audit_append_us", unit: "us", better: "lower", moves: "push_tag_p50_ms on app-lifecycle"},
	{name: "obs.audit_records_per_op", unit: "count/op", better: "lower", moves: "push_tag_p50_ms on app-lifecycle"},
	{name: "fleet.barrier_ms", unit: "ms", better: "lower", moves: "update_p50_ms, p99_ms on fleet-replicated only"},
	{name: "fleet.repl_lag_entries", unit: "count", better: "lower", moves: "update_p50_ms, p99_ms on fleet-replicated only"},
	{name: "fleet.degraded_per_kop", unit: "count/kop", better: "lower", moves: "update_p50_ms, p99_ms on fleet-replicated only"},
	{name: "fleet.repl_verified_per_op", unit: "count/op", better: "higher", moves: "update_p50_ms, p99_ms on fleet-replicated only"},
	{name: "proc.cpu_us_per_op", unit: "us", better: "lower", moves: "ops_s on every workload, app-lifecycle most"},
	{name: "proc.cpu_util", unit: "ratio", better: "lower", moves: "ops_s on every workload, app-lifecycle most"},
	{name: "go.alloc_kb_per_op", unit: "kB", better: "lower", moves: "ops_s on every workload, app-lifecycle most"},
	{name: "go.gc_cycles_per_kop", unit: "count/kop", better: "lower", moves: "ops_s on every workload, app-lifecycle most"},
	{name: "go.gc_cpu_ratio", unit: "ratio", better: "lower", moves: "ops_s on every workload, app-lifecycle most"},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower", moves: "none: how late the open-loop generator ran"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher", moves: "none: traced ops_s over untraced ops_s"},
	{name: "trace.unattributed_ratio", unit: "ratio", better: "lower", moves: "none: client time no layer accounts for"},
}

// measurement is one reported value with the number of samples behind it.
type measurement struct {
	value float64
	n     int
}

type results map[string]measurement

func (r results) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r[name] = measurement{value: v, n: n}
}

// report prints each metric of defs by name with its unit and sample
// count, and for a per-layer metric the end-to-end figure it should move.
func (r results) report(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		m := r[d.name]
		fmt.Fprintf(w, "metric %-34s %14.6f %-9s n=%d", d.name, m.value, d.unit, m.n)
		if d.moves != "" {
			fmt.Fprintf(w, "  moves: %s", d.moves)
		}
		fmt.Fprintln(w)
	}
}

// resultLine is the last line of standard output.
func resultLine(correct bool, attempted, failed int, r results, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{Value: r[d.name].value, Unit: d.unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	return string(raw), err
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
