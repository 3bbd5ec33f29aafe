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

// statusFor finalizes a Status: Complete iff every one of n shards
// answered, with the context error appended when the fan-out was cut
// short before completion.
func statusFor(ctx context.Context, n, ok, failed int, errs []error) Status {
	st := Status{ShardsOK: ok, ShardsFailed: failed}
	st.Complete = ok == n
	if !st.Complete {
		if cerr := ctx.Err(); cerr != nil {
			errs = append(errs, cerr)
		}
	}
	st.Err = errors.Join(errs...)
	return st
}

// outcome is one fan-out unit's result: the index it belongs to, the
// value produced, and the failure (if any). skipped marks units never
// attempted because the context was already done.
type outcome[T any] struct {
	i       int
	v       T
	err     error
	skipped bool
}

// fanOut runs fn(0..n-1) across at most `workers` goroutines, gathering
// outcomes until every unit reports or ctx is done — whichever comes
// first. Stragglers still running at cancellation deliver into a
// buffered channel and exit on their own; fanOut never blocks on them
// and never leaks a goroutine. done[i] reports whether unit i completed
// without error; errs collects unit failures in arrival order.
//
// fn must confine its own panics (the engine's per-shard closures
// recover internally, converting a backend panic into an error) — fanOut
// adds a second recovery layer so that even a misbehaving fn degrades
// into an error instead of killing the process.
func fanOut[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) (vals []T, done []bool, errs []error) {
	vals = make([]T, n)
	done = make([]bool, n)
	if n == 0 {
		return vals, done, nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ch := make(chan outcome[T], n)
	run := func(i int) outcome[T] {
		if err := ctx.Err(); err != nil {
			return outcome[T]{i: i, skipped: true}
		}
		v, err := func() (v T, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("engine: fan-out unit %d panicked: %v", i, r)
				}
			}()
			return fn(i)
		}()
		return outcome[T]{i: i, v: v, err: err}
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
	gather := func(out outcome[T]) {
		switch {
		case out.skipped:
		case out.err != nil:
			errs = append(errs, out.err)
		default:
			vals[out.i] = out.v
			done[out.i] = true
		}
	}
	for received := 0; received < n; {
		select {
		case out := <-ch:
			received++
			gather(out)
		case <-ctx.Done():
			// Deadline hit mid-fan-out: scoop up outcomes already
			// delivered, then stop waiting for in-flight units — they
			// finish into the buffered channel and are garbage-collected
			// with it.
			for received < n {
				select {
				case out := <-ch:
					received++
					gather(out)
				default:
					return vals, done, errs
				}
			}
		}
	}
	return vals, done, errs
}

// searchShard answers a top-k query on one shard with panic isolation:
// a panicking backend (or a panic in the id remap) is recovered and
// converted into an error carrying the attributed panic value, with the
// shard's read lock released on the way out (defer keeps the lock
// discipline panic-safe).
//
// Tombstones: when the shard carries deleted items the backend is asked
// for k+deadN results and the dead ones are filtered out. That
// over-fetch is exact, not heuristic — at most deadN dead items can
// outrank a live one, so every member of the live top-k has backend rank
// below k+deadN and survives the cut.
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
	fetch := k
	if sh.deadN > 0 {
		fetch = k + sh.deadN
	}
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
	//lint:ignore errcheck the default backend name is registered at construction; the config error is impossible
	rs, st, _ := e.SearchWithCtx(ctx, e.names[0], q, k)
	return rs, st
}

// SearchWithCtx is SearchCtx with an explicit backend. The error return
// reports configuration problems (unknown backend); runtime degradation
// — failed shards, expired deadlines — is reported through Status so
// partial results stay usable.
func (e *Engine) SearchWithCtx(ctx context.Context, name string, q Query, k int) ([]Result, Status, error) {
	bi, err := e.backendIndex(name)
	if err != nil {
		return nil, Status{}, err
	}
	rs, st := e.searchShardsCtx(ctx, bi, q, k)
	return rs, st, nil
}

// searchShardsCtx fans a query out across shards in parallel under ctx
// and merges whatever answered into the (possibly partial) top-k.
func (e *Engine) searchShardsCtx(ctx context.Context, bi int, q Query, k int) ([]Result, Status) {
	if k <= 0 {
		// The exact answer to a non-positive k is empty; no shard work
		// is needed, so the empty answer is complete.
		return nil, Status{Complete: true}
	}
	var span *obs.ActiveSpan
	if e.met != nil {
		span = e.met.tracer.Start(e.met.spanNames[bi], 0)
	}
	n := len(e.shards)
	per, done, errs := fanOut(ctx, n, e.opts.Workers, func(si int) ([]Result, error) {
		return e.searchShard(bi, si, q, k)
	})
	ok := 0
	for _, d := range done {
		if d {
			ok++
		}
	}
	rs := e.merge(per, k)
	st := statusFor(ctx, n, ok, len(errs), errs)
	e.finishQuery(st, span)
	return rs, st
}

// finishQuery records the per-query accounting shared by every search
// path: the total query count, the degraded count when the status is
// incomplete, and the query span (when tracing is live).
func (e *Engine) finishQuery(st Status, span *obs.ActiveSpan) {
	if e.met == nil {
		return
	}
	e.met.searches.Inc()
	if !st.Complete {
		e.met.degraded.Inc()
	}
	span.End()
}

// searchShardsSeqCtx is searchShardsCtx without the per-shard goroutine
// fan-out: one goroutine walks every shard, checking ctx between shards
// (an in-flight shard search itself is not interruptible). Used by the
// batch path, where parallelism comes from query-level fan-out.
func (e *Engine) searchShardsSeqCtx(ctx context.Context, bi int, q Query, k int) ([]Result, Status) {
	if k <= 0 {
		return nil, Status{Complete: true}
	}
	var span *obs.ActiveSpan
	if e.met != nil {
		span = e.met.tracer.Start(e.met.spanNames[bi], 0)
	}
	n := len(e.shards)
	per := make([][]Result, n)
	var ok int
	var errs []error
	var failed int
	for si := 0; si < n; si++ {
		if ctx.Err() != nil {
			break
		}
		rs, err := e.searchShard(bi, si, q, k)
		if err != nil {
			failed++
			errs = append(errs, err)
			continue
		}
		per[si] = rs
		ok++
	}
	out := e.merge(per, k)
	st := statusFor(ctx, n, ok, failed, errs)
	e.finishQuery(st, span)
	return out, st
}

// SearchBatchWithCtx answers many queries with the named backend under
// ctx, parallelized across queries by the engine's worker budget: each
// worker walks the shards of its query sequentially, which scales better
// than nested fan-out when the batch is larger than the worker budget.
// Results and statuses are in query order; queries never started because
// the context expired first carry an incomplete Status with the context
// error. The error reports configuration problems only (unknown backend);
// per-query degradation is in the Status slice.
func (e *Engine) SearchBatchWithCtx(ctx context.Context, name string, qs []Query, k int) ([][]Result, []Status, error) {
	bi, err := e.backendIndex(name)
	if err != nil {
		return nil, nil, err
	}
	type qOut struct {
		rs []Result
		st Status
	}
	vals, done, _ := fanOut(ctx, len(qs), e.opts.Workers, func(qi int) (qOut, error) {
		rs, st := e.searchShardsSeqCtx(ctx, bi, qs[qi], k)
		return qOut{rs: rs, st: st}, nil
	})
	out := make([][]Result, len(qs))
	sts := make([]Status, len(qs))
	for i := range qs {
		if done[i] {
			out[i] = vals[i].rs
			sts[i] = vals[i].st
		} else {
			sts[i] = statusFor(ctx, len(e.shards), 0, 0, nil)
			// Queries that never ran still count: they were asked and
			// answered (with nothing), which is exactly what the degraded
			// counter exists to surface.
			e.finishQuery(sts[i], nil)
		}
	}
	return out, sts, nil
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
	n := len(e.shards)
	per, done, errs := fanOut(ctx, n, e.opts.Workers, func(si int) ([]int, error) {
		return e.withinShard(si, code, radius)
	})
	ok := 0
	var all []int
	for si, d := range done {
		if d {
			ok++
			all = append(all, per[si]...)
		}
	}
	sort.Ints(all)
	st := statusFor(ctx, n, ok, len(errs), errs)
	e.finishQuery(st, span)
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
