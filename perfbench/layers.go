package main

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"palaemon/internal/attest"
	"palaemon/internal/board"
	"palaemon/internal/cryptoutil"
	"palaemon/internal/kvdb"
	"palaemon/internal/obs"
	"palaemon/internal/policy"
)

// layerInputs are the workload's own inputs the side measurements time
// each layer's public functions on.
type layerInputs struct {
	policies []*policy.Policy
	evidence []attest.Evidence
	qk       ed25519.PublicKey
	eval     *board.Evaluator
	board    policy.Board
}

// meanOf times f over reps calls and returns the mean.
func meanOf(reps int, f func(i int)) time.Duration {
	start := time.Now()
	for i := range reps {
		f(i)
	}
	return time.Since(start) / time.Duration(reps)
}

// wireTimes times the JSON encode and decode of the response DTOs
// captured in the traced phases, per op kind.
func wireTimes(dtos [numKinds][]any) (enc, dec [numKinds]time.Duration, err error) {
	const rounds = 20
	for k, vals := range dtos {
		if len(vals) == 0 {
			continue
		}
		raws := make([][]byte, len(vals))
		enc[k] = meanOf(rounds*len(vals), func(i int) {
			raws[i%len(vals)], err = json.Marshal(vals[i%len(vals)])
		})
		if err != nil {
			return enc, dec, err
		}
		dec[k] = meanOf(rounds*len(vals), func(i int) {
			v := reflect.New(reflect.TypeOf(vals[i%len(vals)]).Elem()).Interface()
			if e := json.Unmarshal(raws[i%len(vals)], v); e != nil {
				err = e
			}
		})
		if err != nil {
			return enc, dec, err
		}
	}
	return enc, dec, nil
}

// policyTimes times validation, compilation, the cache-miss decode and
// the board digest on the workload's policies.
func policyTimes(pols []*policy.Policy) (validate, compile, decode, digest time.Duration, err error) {
	const rounds = 50
	n := len(pols)
	raws := make([][]byte, n)
	for i, p := range pols {
		if raws[i], err = json.Marshal(p); err != nil {
			return
		}
	}
	validate = meanOf(rounds*n, func(i int) {
		if e := pols[i%n].Validate(); e != nil {
			err = e
		}
	})
	compile = meanOf(rounds*n, func(i int) { policy.Compile(pols[i%n]) })
	decode = meanOf(rounds*n, func(i int) {
		var p policy.Policy
		if e := json.Unmarshal(raws[i%n], &p); e != nil {
			err = e
		}
	})
	digest = meanOf(rounds*n, func(i int) { board.DigestPolicy(pols[i%n]) })
	return
}

func verifyBindingTime(evs []attest.Evidence, qk ed25519.PublicKey) (time.Duration, error) {
	if len(evs) == 0 {
		return 0, nil
	}
	var err error
	d := meanOf(20*len(evs), func(i int) {
		if e := attest.VerifyBinding(evs[i%len(evs)], qk); e != nil {
			err = e
		}
	})
	return d, err
}

// boardTimes times Evaluate on the workload's board and VerifyVerdict on
// verdicts captured in the run.
func boardTimes(ctx context.Context, in layerInputs, vs []capturedVerdict) (evaluate, verify time.Duration, err error) {
	if in.eval == nil || len(vs) == 0 {
		return 0, 0, nil
	}
	evaluate = meanOf(20, func(i int) {
		if d := in.eval.Evaluate(ctx, in.board, vs[i%len(vs)].req); !d.Approved {
			err = fmt.Errorf("board rejected a replayed request (%d approvals)", d.Approvals)
		}
	})
	verify = meanOf(50*len(vs), func(i int) {
		c := vs[i%len(vs)]
		if e := board.VerifyVerdict(c.req, c.v, c.member); e != nil {
			err = e
		}
	})
	return evaluate, verify, err
}

// kvdbTimes replays write sizes on a side store opened with the
// instance's options (group commit, fsync on) from 2 writers.
func kvdbTimes(dir string, sizes []int) (put time.Duration, perCommit float64, err error) {
	if len(sizes) == 0 {
		return 0, 0, nil
	}
	key, err := cryptoutil.NewKey()
	if err != nil {
		return 0, 0, err
	}
	db, err := kvdb.Open(dir, key, kvdb.Options{GroupCommit: true})
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total time.Duration
	)
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum time.Duration
			for i := w; i < len(sizes); i += 2 {
				start := time.Now()
				if e := db.Put("side", fmt.Sprintf("k%d", i), make([]byte, sizes[i])); e != nil {
					mu.Lock()
					err = e
					mu.Unlock()
					return
				}
				sum += time.Since(start)
			}
			mu.Lock()
			total += sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	batches, records := db.CommitStats()
	if batches > 0 {
		perCommit = float64(records) / float64(batches)
	}
	return total / time.Duration(len(sizes)), perCommit, err
}

// fsyncTime is the median of raw File.Sync calls after a 4 KiB write on
// the data directory's filesystem.
func fsyncTime(dir string) (time.Duration, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	block := make([]byte, 4096)
	var ds []time.Duration
	for range 30 {
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return percentile(ds, 0.5), f.Close()
}

// auditTime appends events shaped like the run's to a side audit chain.
func auditTime(dir string, pols []*policy.Policy) (time.Duration, error) {
	a, err := obs.OpenAudit(filepath.Join(dir, "side-audit.log"))
	if err != nil {
		return 0, err
	}
	defer a.Close()
	name := "policy"
	if len(pols) > 0 {
		name = pols[0].Name
	}
	d := meanOf(300, func(i int) {
		if e := a.Append(obs.AuditEvent{
			Event: "policy.update", Outcome: "ok", Tenant: "0123abcd",
			Policy: name, Service: "app", RequestID: fmt.Sprintf("%016x", i),
		}); e != nil {
			err = e
		}
	})
	return d, err
}
