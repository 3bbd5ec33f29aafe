package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"traj2hash/internal/hamming"
	"traj2hash/internal/obs"
)

// Status reports how completely a fan-out query was answered. The
// engine's failure-domain contract (DESIGN.md "Failure semantics &
// graceful degradation") is that a query never blocks past its context
// and never crashes the process: a panicking shard backend degrades into
// a smaller result set, and an expired deadline returns whatever shards
// answered in time.
type Status struct {
	// Complete reports whether the returned results are the exact full
	// answer: every shard was consulted (or no shard work was needed,
	// e.g. k <= 0).
	Complete bool
	// ShardsOK counts shards that answered normally.
	ShardsOK int
	// ShardsFailed counts shards whose backend failed — today that means
	// it panicked; the recovered, "pkg: "-attributed panic value is
	// surfaced through Err. Shards skipped because the context was
	// already done count in neither ShardsOK nor ShardsFailed.
	ShardsFailed int
	// Err aggregates (errors.Join) the per-shard failures and, when the
	// fan-out was cut short, the context's error. Nil iff Complete.
	Err error
}

// statusOf finalizes the Status of query qi from its shard units —
// every nq-th unit from qi (see search): Complete iff every shard
// answered, with the shard failures (in shard order) and, when the
// fan-out was cut short before completion, the context's error joined
// into Err.
func statusOf[T any](ctx context.Context, units []outcome[T], qi, nq int) Status {
	var st Status
	var errs []error
	for u := qi; u < len(units); u += nq {
		switch {
		case units[u].done:
			st.ShardsOK++
		case units[u].err != nil:
			st.ShardsFailed++
			errs = append(errs, units[u].err)
		}
	}
	st.Complete = st.ShardsOK == len(units)/nq
	if !st.Complete {
		if cerr := ctx.Err(); cerr != nil {
			errs = append(errs, cerr)
		}
	}
	st.Err = errors.Join(errs...)
	return st
}

// outcome is one fan-out unit's result: its index, and either the value
// it produced (done) or its failure (err). A unit skipped because the
// context was already done — or not yet back when the fan-out returned at
// it — has neither.
type outcome[T any] struct {
	i    int
	v    T
	err  error
	done bool
}

// fanOut runs fn(0..n-1) across at most `workers` goroutines, gathering
// outcomes until every unit reports or ctx is done — whichever comes
// first — into units[i]. Stragglers still running at cancellation deliver
// into a buffered channel and exit on their own; fanOut never blocks on
// them and never leaks a goroutine.
//
// fn must confine its own panics (the engine's per-shard closures
// recover internally, converting a backend panic into an error) — fanOut
// adds a second recovery layer so that even a misbehaving fn degrades
// into an error instead of killing the process.
func fanOut[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) (units []outcome[T]) {
	units = make([]outcome[T], n)
	if n == 0 {
		return units
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ch := make(chan outcome[T], n)
	run := func(i int) outcome[T] {
		if ctx.Err() != nil {
			return outcome[T]{i: i}
		}
		v, err := func() (v T, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("engine: fan-out unit %d panicked: %v", i, r)
				}
			}()
			return fn(i)
		}()
		if err != nil {
			return outcome[T]{i: i, err: err}
		}
		return outcome[T]{i: i, v: v, done: true}
	}
	// Worker w starts on unit w and claims further indices from a shared
	// counter. A unit claimed after ctx is done reports itself skipped
	// (see run), so the collector can account for every index and return.
	// Starting each worker on a unit of its own means the collector cannot
	// finish before every worker has run: none is left behind in the run
	// queue to pile up under a stream of short searches.
	var next atomic.Int64
	next.Store(int64(workers))
	for w := 0; w < workers; w++ {
		go func(i int) {
			for ; i < n; i = int(next.Add(1)) - 1 {
				ch <- run(i)
			}
		}(w)
	}
	for received := 0; received < n; {
		select {
		case out := <-ch:
			received++
			units[out.i] = out
		case <-ctx.Done():
			// Deadline hit mid-fan-out: scoop up outcomes already
			// delivered, then stop waiting for in-flight units — they
			// finish into the buffered channel and are garbage-collected
			// with it.
			for received < n {
				select {
				case out := <-ch:
					received++
					units[out.i] = out
				default:
					return units
				}
			}
		}
	}
	return units
}

// searchShard answers a top-k query on one shard with panic isolation:
// a panicking backend (or a panic in the id remap) is recovered and
// converted into an error carrying the attributed panic value, with the
// shard's read lock released on the way out (defer keeps the lock
// discipline panic-safe).
//
// Tombstones: when the shard carries deleted items the backend is asked
// for k+deadN results — at most the whole shard — and the dead ones are
// filtered out. That over-fetch is exact, not heuristic — at most deadN
// dead items can outrank a live one, so every member of the live top-k
// has backend rank below k+deadN and survives the cut.
//
// Timing note: the shard latency histogram is observed HERE, inside the
// fan-out worker, not around the merge at the collection site — so a
// slow shard is attributable to its own engine.shard.seconds.<backend>.<i>
// series even when the fan-out as a whole is bounded by a deadline. The
// panicking path is timed too (the time burned before the panic is real
// latency), and recoveries count into engine.shard.panics.
func (e *Engine) searchShard(bi, si int, q Query, k int) (rs []Result, err error) {
	sh := e.shards[si]
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			rs, err = nil, fmt.Errorf("engine: shard %d backend panic: %v", si, r)
			if e.met != nil {
				e.met.panics.Inc()
			}
		}
		if e.met != nil {
			e.met.shardLat[bi][si].Observe(time.Since(start).Seconds())
		}
	}()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	// Bounded by the live count first: k+deadN overflows for a huge k.
	fetch := min(k, len(sh.ids)-sh.deadN) + sh.deadN
	raw := sh.store.strategies[bi].Search(sh.store, q, fetch)
	out := make([]Result, 0, min(k, len(raw)))
	for _, r := range raw {
		if sh.dead[r.ID] {
			continue
		}
		out = append(out, Result{ID: sh.ids[r.ID], Score: r.Score})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// SearchCtx answers a top-k query with the default backend, honoring
// cancellation and deadlines: the shard fan-out stops as soon as ctx is
// done and the per-shard top-k lists gathered so far are merged into a
// partial answer, tagged by the returned Status. A panicking shard
// degrades the answer instead of crashing the process.
func (e *Engine) SearchCtx(ctx context.Context, q Query, k int) ([]Result, Status) {
	//lint:ignore errcheck the default backend name is checked at construction; the config error is impossible
	rs, st, _ := e.SearchWithCtx(ctx, e.names[0], q, k)
	return rs, st
}

// SearchWithCtx is SearchCtx with an explicit backend: the batch of one.
// The error return reports configuration problems (unknown backend);
// runtime degradation — failed shards, expired deadlines — is reported
// through Status so partial results stay usable.
func (e *Engine) SearchWithCtx(ctx context.Context, name string, q Query, k int) ([]Result, Status, error) {
	var rs [1][]Result
	var st [1]Status
	err := e.search(ctx, name, []Query{q}, k, rs[:], st[:])
	return rs[0], st[0], err
}

// SearchBatchWithCtx answers many queries with the named backend under
// ctx, exactly as SearchWithCtx answers each: one fan-out over every
// (query, shard) pair within the engine's worker budget, so a member cut
// short by the deadline keeps the shards that answered, like a lone
// query. Results and statuses are in query order. The error reports
// configuration problems only (unknown backend); per-query degradation is
// in the Status slice.
func (e *Engine) SearchBatchWithCtx(ctx context.Context, name string, qs []Query, k int) ([][]Result, []Status, error) {
	out, sts := make([][]Result, len(qs)), make([]Status, len(qs))
	if err := e.search(ctx, name, qs, k, out, sts); err != nil {
		return nil, nil, err
	}
	return out, sts, nil
}

// search is the one search path: a fan-out of every query of qs over every
// shard of the named backend under ctx, then a merge of each query's
// answered shards into its (possibly partial) top-k in out, with its
// Status in sts. The units run shard by shard — unit u is shard u/len(qs)
// of query u%len(qs) — so when one shard is slow, every query has its
// other shards' answers in hand at the deadline. The error is an unknown
// backend's, before anything is written.
func (e *Engine) search(ctx context.Context, name string, qs []Query, k int, out [][]Result, sts []Status) error {
	bi, err := e.backendIndex(name)
	if err != nil {
		return err
	}
	if k <= 0 || len(qs) == 0 {
		// The exact answer to a non-positive k is empty; no shard work
		// is needed, so the empty answer is complete.
		for i := range sts {
			sts[i] = Status{Complete: true}
		}
		return nil
	}
	var span *obs.ActiveSpan
	if e.met != nil {
		span = e.met.tracer.Start(e.met.spanNames[bi], 0)
	}
	nq := len(qs)
	units := fanOut(ctx, len(e.shards)*nq, e.opts.Workers, func(u int) ([]Result, error) {
		return e.searchShard(bi, u/nq, qs[u%nq], k)
	})
	for qi := range qs {
		out[qi] = e.merge(units, qi, nq, k)
		sts[qi] = statusOf(ctx, units, qi, nq)
		e.countQuery(sts[qi])
	}
	span.End()
	return nil
}

// countQuery records the per-query accounting shared by every search
// path: the total query count, and the degraded count when the status is
// incomplete.
func (e *Engine) countQuery(st Status) {
	if e.met == nil {
		return
	}
	e.met.searches.Inc()
	if !st.Complete {
		e.met.degraded.Inc()
	}
}

// WithinCtx returns the global ids whose codes lie within the given
// Hamming radius of the query code, sorted ascending, honoring
// cancellation and isolating shard panics like SearchCtx. The error
// reports configuration problems — a radius outside 0–hamming.MaxRadius
// (an error, before any shard is consulted: the lookup enumerates no
// further), no radius-lookup backend; runtime degradation is in the
// Status.
func (e *Engine) WithinCtx(ctx context.Context, code hamming.Code, radius int) ([]int, Status, error) {
	if radius < 0 || radius > hamming.MaxRadius {
		return nil, Status{}, fmt.Errorf("engine: radius %d outside the supported range 0–%d", radius, hamming.MaxRadius)
	}
	if e.within < 0 {
		return nil, Status{}, fmt.Errorf("engine: no radius-lookup backend (add %q)", HammingHybridName)
	}
	var span *obs.ActiveSpan
	if e.met != nil {
		span = e.met.tracer.Start("engine.within", 0)
	}
	units := fanOut(ctx, len(e.shards), e.opts.Workers, func(si int) ([]int, error) {
		return e.withinShard(si, code, radius)
	})
	var all []int
	for _, u := range units {
		all = append(all, u.v...)
	}
	sort.Ints(all)
	st := statusOf(ctx, units, 0, 1)
	e.countQuery(st)
	span.End()
	return all, st, nil
}

// withinShard is the panic-isolated per-shard radius lookup. Deleted
// items are filtered here, at the local→global remap, so a tombstoned id
// never appears in a Within answer.
func (e *Engine) withinShard(si int, code hamming.Code, radius int) (ids []int, err error) {
	sh := e.shards[si]
	defer func() {
		if r := recover(); r != nil {
			ids, err = nil, fmt.Errorf("engine: shard %d backend panic: %v", si, r)
			if e.met != nil {
				e.met.panics.Inc()
			}
		}
	}()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	local := sh.store.strategies[e.within].(radiusSearcher).Within(code, radius)
	global := make([]int, 0, len(local))
	for _, id := range local {
		if sh.dead[id] {
			continue
		}
		global = append(global, sh.ids[id])
	}
	return global, nil
}
