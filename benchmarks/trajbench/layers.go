package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"traj2hash"
	"traj2hash/internal/core"
	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/hamming"
	"traj2hash/internal/nn"
	"traj2hash/internal/serve"
	"traj2hash/internal/topk"
	"traj2hash/internal/wal"
)

// The layer suite times calls into each layer's public functions, on
// inputs drawn from the seed but independent of the workload. It runs in
// every traced run, so every per-layer metric is a fresh measurement on
// every workload; the workload's own contribution to a traced run is the
// span shares (trace.go). Each measurement gets an equal slice of the
// suite's time budget.

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

type suite struct {
	e        env
	hasher   *core.GeoPTH // embeds the fixtures no encoder is timed on
	out      *metricSet
	slice    time.Duration // time budget of one measurement
	problems []string
	checks   int
}

// suiteMeasurements is how many timed loops the suite runs; the budget is
// divided by it.
const suiteMeasurements = 25

func (s *suite) fail(format string, a ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, a...))
}

// timeIt reports the median time of one call of fn, batching cheap calls.
func (s *suite) timeIt(fn func()) time.Duration { return timeBatch(s.slice, fn) }

// runLayerSuite measures every layer within budget and checks the five
// engine backends against the naive oracles.
func runLayerSuite(ctx context.Context, e env, budget time.Duration, out *metricSet) (checks int, problems []string) {
	s := &suite{e: e, out: out, slice: budget / suiteMeasurements}
	// The suite's stores and indexes get a directory of their own, so a
	// second suite in the same process never recovers the first one's WAL.
	dir, err := os.MkdirTemp(e.dir, "suite-")
	if err != nil {
		return 1, []string{fmt.Sprintf("suite: scratch directory: %v", err)}
	}
	s.e.dir = dir
	defer func() {
		if err := os.RemoveAll(dir); err != nil {
			problems = append(problems, err.Error())
		}
	}()
	if s.hasher, err = e.scanHasher(); err != nil {
		return 1, []string{fmt.Sprintf("suite: %v", err)}
	}
	s.coreAndBelow(ctx)
	s.hammingTopkEngine(ctx)
	s.mutableEngine()
	s.walStore()
	s.facadeAndServe(ctx)
	return s.checks, s.problems
}

// ---- core, nn, dist ----

func (s *suite) coreAndBelow(ctx context.Context) {
	e, sc := s.e, s.e.sc
	trips := e.trips(11, 512)
	enc, err := core.New(e.encoderConfig(), trips)
	if err != nil {
		s.fail("suite: attention encoder: %v", err)
		return
	}
	i := 0
	s.out.set("core.embed_attention_ms", ms(s.timeIt(func() { sink = enc.Embed(trips[i%len(trips)]); i++ })), "ms")

	// Allocation cost of one Embed, from the runtime's cumulative counters.
	const embeds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j := 0; j < embeds; j++ {
		sink = enc.Embed(trips[j])
	}
	runtime.ReadMemStats(&after)
	s.out.set("core.embed_attention_allocs", float64(after.Mallocs-before.Mallocs)/embeds, "count")
	s.out.set("core.embed_attention_kb", float64(after.TotalAlloc-before.TotalAlloc)/embeds/1024, "KB")

	batch := trips[:ingestChunk]
	d := s.timeIt(func() { sink = enc.EmbedAllParallel(batch, e.workers) })
	s.out.set("core.embed_batch_traj_per_s", float64(len(batch))/d.Seconds(), "1/s")

	g, err := e.geopth(trips, sc.maxLen)
	if err != nil {
		s.fail("suite: %v", err)
		return
	}
	s.out.set("core.embed_geopth_ms", ms(s.timeIt(func() { sink = g.Embed(trips[i%len(trips)]); i++ })), "ms")

	tr, err := e.trainAttention(ctx, trips)
	if err != nil {
		s.fail("suite: %v", err)
		return
	}
	steps := make([]float64, len(tr.steps))
	for j, st := range tr.steps {
		steps[j] = ms(st)
	}
	s.out.set("core.train_step_ms", median(steps), "ms")

	rng := rand.New(rand.NewSource(e.seed))
	a, b := nn.New(sc.dim, sc.dim), nn.New(sc.dim, sc.maxLen)
	for j := range a.Data {
		a.Data[j] = rng.NormFloat64()
	}
	for j := range b.Data {
		b.Data[j] = rng.NormFloat64()
	}
	dst := nn.New(sc.dim, sc.maxLen)
	s.out.set("nn.matmul_into_ns", float64(s.timeIt(func() { nn.MatMulInto(dst, a, b) })), "ns")

	s.out.set("dist.frechet_pair_us", us(s.timeIt(func() {
		sink = dist.Frechet(trips[i%256], trips[256+i%256])
		i++
	})), "us")
}

// ---- hamming, topk, engine over the 100K fixture ----

func (s *suite) hammingTopkEngine(ctx context.Context) {
	e, sc := s.e, s.e.sc
	enc := s.hasher
	embs := enc.EmbedAllParallel(e.trips(12, sc.fixtureN), e.workers)
	codes := make([]hamming.Code, len(embs))
	for i, v := range embs {
		codes[i] = hamming.FromSigns(v)
	}
	qe := enc.EmbedAll(e.trips(13, 256))
	qc := make([]hamming.Code, len(qe))
	for i, v := range qe {
		qc[i] = hamming.FromSigns(v)
	}
	i := 0
	next := func() int { i++; return i % len(qe) }

	s.out.set("hamming.sign_ns", float64(s.timeIt(func() { sink = hamming.FromSigns(qe[next()]) })), "ns")

	table, err := hamming.NewTable(codes)
	if err != nil {
		s.fail("suite: hamming table: %v", err)
		return
	}
	var sel topk.Selector
	var nb []hamming.Neighbor
	s.out.set("hamming.bruteforce_100k_us", us(s.timeIt(func() { nb = table.BruteForceInto(qc[next()], topK, &sel, nb) })), "us")
	var fast, hybrids int
	s.out.set("hamming.hybrid_100k_us", us(s.timeIt(func() {
		r, took := table.Hybrid(qc[next()], topK)
		sink = r
		hybrids++
		if took {
			fast++
		}
	})), "us")
	s.out.set("hamming.hybrid_fastpath_share", float64(fast)/float64(hybrids), "ratio")

	mih, err := hamming.NewMIH(codes, 4)
	if err != nil {
		s.fail("suite: MIH: %v", err)
		return
	}
	var cb hamming.CandidateBuffer
	s.out.set("hamming.mih_candidates_us", us(s.timeIt(func() { sink = mih.CandidatesInto(qc[next()], 1, &cb) })), "us")

	dists := make([]float64, len(codes))
	rng := rand.New(rand.NewSource(e.seed + 1))
	for j := range dists {
		dists[j] = rng.Float64()
	}
	s.out.set("topk.select_100k_us", us(s.timeIt(func() {
		sink = sel.Select(len(dists), topK, func(j int) float64 { return dists[j] })
	})), "us")

	names := []string{engine.EuclideanBFName, engine.HammingBFName, engine.HammingHybridName, engine.MIHName, engine.VPTreeName}
	eng, err := engine.New(engine.Options{
		Backends: names, Shards: e.workers, Workers: e.workers,
		Config: engine.Config{Bits: sc.dim, VPSeed: e.seed},
	})
	if err == nil {
		_, err = eng.AddBatch(embs, codes)
	}
	if err != nil {
		s.fail("suite: 100K engine: %v", err)
		return
	}
	live := make([]int, len(embs))
	for j := range live {
		live[j] = j
	}
	for _, name := range names {
		// Oracle check first: it also warms the backend.
		for q := 0; q < sc.oracleQueries/5+1; q++ {
			s.checks++
			rs, st, err := eng.SearchWithCtx(ctx, name, engine.Query{Emb: qe[q], Code: qc[q]}, topK)
			var want []scored
			if name == engine.EuclideanBFName || name == engine.VPTreeName {
				want = naiveEuclid(qe[q], embs, live, topK)
			} else {
				want = naiveHamming(qc[q], codes, live, topK)
			}
			got := make([]traj2hash.Result, len(rs))
			for j, r := range rs {
				got[j] = traj2hash.Result{ID: r.ID, Score: r.Score}
			}
			if err != nil || !st.Complete || !sameAnswer(got, want) {
				s.fail("suite: backend %s disagrees with the naive oracle on query %d", name, q)
			}
		}
		name := name
		s.out.set("engine.search_us."+name, us(s.timeIt(func() {
			j := next()
			//lint:ignore errcheck the backend name was registered above; a failed search shows in the oracle check
			sink, _, _ = eng.SearchWithCtx(ctx, name, engine.Query{Emb: qe[j], Code: qc[j]}, topK)
		})), "us")
	}
	batch := make([]engine.Query, ingestChunk)
	for j := range batch {
		batch[j] = engine.Query{Emb: qe[j], Code: qc[j]}
	}
	d := s.timeIt(func() {
		//lint:ignore errcheck the backend name is registered; a failed search shows in the oracle check
		sink, _, _ = eng.SearchBatchWithCtx(ctx, engine.HammingHybridName, batch, topK)
	})
	s.out.set("engine.batch64_qps", float64(len(batch))/d.Seconds(), "1/s")
}

// ---- engine mutation paths on a smaller, mutable engine ----

func (s *suite) mutableEngine() {
	e, sc := s.e, s.e.sc
	n := sc.fixtureN / 10
	embs := s.hasher.EmbedAllParallel(e.trips(14, 2*n), e.workers)
	codes := make([]hamming.Code, len(embs))
	for i, v := range embs {
		codes[i] = hamming.FromSigns(v)
	}
	eng, err := engine.New(engine.Options{
		Backends:  []string{engine.HammingHybridName, engine.EuclideanBFName, engine.HammingBFName},
		Shards:    e.workers,
		Workers:   e.workers,
		CompactAt: -1, // tombstones stay until the timed Compact below
		Config:    engine.Config{Bits: sc.dim},
	})
	if err == nil {
		_, err = eng.AddBatch(embs[:n], codes[:n])
	}
	if err != nil {
		s.fail("suite: mutable engine: %v", err)
		return
	}
	// The mutation calls are timed one by one over a fixed count: each
	// changes the engine, so they cannot be repeated until a clock runs out.
	count := n / 5
	timeEach := func(fn func(i int) error) float64 {
		per := make([]float64, 0, count)
		for i := 0; i < count; i++ {
			t := time.Now()
			if err := fn(i); err != nil {
				s.fail("suite: engine mutation %d: %v", i, err)
				break
			}
			per = append(per, us(time.Since(t)))
		}
		return median(per)
	}
	s.out.set("engine.add_us", timeEach(func(i int) error {
		_, err := eng.Add(embs[n+i], codes[n+i])
		return err
	}), "us")
	s.out.set("engine.update_us", timeEach(func(i int) error {
		return eng.Update(i*3%n, embs[n+count+i], codes[n+count+i])
	}), "us")
	// Tombstone a fifth of the items, evenly spread over the shards.
	total := n + count
	s.out.set("engine.delete_us", timeEach(func(i int) error { return eng.Delete(i * 5) }), "us")
	q := engine.Query{Emb: embs[total], Code: codes[total]}
	s.out.set("engine.tombstone20_search_us", us(s.timeIt(func() { sink = eng.Search(q, topK) })), "us")
	t := time.Now()
	if err := eng.Compact(); err != nil {
		s.fail("suite: compact: %v", err)
	}
	s.out.set("engine.compact_ms", ms(time.Since(t)), "ms")
}

// ---- wal ----

func (s *suite) walStore() {
	e, sc := s.e, s.e.sc
	trips := e.trips(15, 512)
	recs := make([]wal.Record, len(trips))
	for i, t := range trips {
		emb := s.hasher.Embed(t)
		recs[i] = wal.Record{Op: wal.OpAdd, ID: i, Emb: emb, Code: hamming.FromSigns(emb), Traj: flatXY(t)}
	}
	appendTime := func(name string, syncEvery int) (dir string, appended int) {
		dir = filepath.Join(e.dir, name)
		store, _, err := wal.Open(wal.Options{Dir: dir, SyncEvery: syncEvery, SnapshotEvery: -1})
		if err != nil {
			s.fail("suite: wal open: %v", err)
			return dir, 0
		}
		d := s.timeIt(func() {
			r := recs[appended%len(recs)]
			r.ID = appended
			if err := store.Append(r); err != nil {
				s.fail("suite: wal append: %v", err)
			}
			appended++
		})
		s.out.set("wal."+name+"_us", us(d), "us")
		if err := store.Close(); err != nil {
			s.fail("suite: wal close: %v", err)
		}
		return dir, appended
	}
	dir, appended := appendTime("append_sync", 1)
	if size, err := dirBytes(dir); err != nil || appended == 0 {
		s.fail("suite: sizing the log: %v", err)
	} else {
		s.out.set("wal.bytes_per_record", float64(size)/float64(appended), "B")
	}
	appendTime("append_group", 64)

	// Snapshot of fixtureN/20 items (5 000 at full scale), then a
	// 1 000-record tail (fixtureN/100), then recovery of both.
	dir = filepath.Join(e.dir, "snapshot")
	store, _, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 64, SnapshotEvery: -1})
	if err != nil {
		s.fail("suite: wal open: %v", err)
		return
	}
	items := sc.fixtureN / 20
	state := &wal.State{Next: items}
	for i := 0; i < items; i++ {
		r := recs[i%len(recs)]
		state.Items = append(state.Items, wal.Item{ID: i, Emb: r.Emb, Code: r.Code, Traj: r.Traj})
	}
	t := time.Now()
	if err := store.WriteSnapshot(state); err != nil {
		s.fail("suite: snapshot: %v", err)
	}
	s.out.set("wal.snapshot_ms", ms(time.Since(t)), "ms")
	tail := sc.fixtureN / 100
	for i := 0; i < tail; i++ {
		r := recs[i%len(recs)]
		r.ID = items + i
		if err := store.Append(r); err != nil {
			s.fail("suite: wal append: %v", err)
			break
		}
	}
	if err := store.Close(); err != nil {
		s.fail("suite: wal close: %v", err)
	}
	t = time.Now()
	store, rec, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 64, SnapshotEvery: -1})
	s.out.set("wal.open_recover_ms", ms(time.Since(t)), "ms")
	s.checks++
	if err != nil || rec.Snapshot == nil || len(rec.Snapshot.Items) != items || len(rec.Tail) != tail {
		s.fail("suite: recovery did not return the snapshot and tail that were written (%v)", err)
	}
	if err == nil {
		if err := store.Close(); err != nil {
			s.fail("suite: wal close: %v", err)
		}
	}
}

// ---- the facade and the serving layer, by difference ----

// serveInProcess sends one search through h with no socket and returns
// the size of the reply.
func (s *suite) serveInProcess(h http.Handler, body []byte) int {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		s.fail("suite: handler answered %d", w.Code)
	}
	return w.Body.Len()
}

func (s *suite) facadeAndServe(ctx context.Context) {
	e, sc := s.e, s.e.sc
	db := e.trips(16, sc.suiteDB)
	queries := e.trips(17, 128)
	adds := e.trips(18, 64)
	enc, err := e.geopth(db, sc.maxLen)
	if err != nil {
		s.fail("suite: %v", err)
		return
	}
	opts := e.indexOptions()
	opts.WALDir = filepath.Join(e.dir, "suite-index")
	opts.WALSyncEvery = 1
	ix, err := traj2hash.NewIndexWith(enc, nil, opts)
	if err == nil {
		err = ingest(ctx, ix, db)
	}
	if err != nil {
		s.fail("suite: facade index: %v", err)
		return
	}
	embs, codes, _ := snapshotIndex(ix, len(db))
	bare, err := engine.New(engine.Options{
		Backends: []string{engine.HammingHybridName, engine.EuclideanBFName, engine.HammingBFName},
		Shards:   e.workers, Workers: e.workers, Config: engine.Config{Bits: sc.dim},
	})
	if err == nil {
		_, err = bare.AddBatch(embs, codes)
	}
	if err != nil {
		s.fail("suite: bare engine: %v", err)
		return
	}
	// Both servers must be running for their handlers to answer: Run
	// starts the batcher.
	noWindow, err := startServer(serve.Config{Index: ix, BatchWindow: -1})
	if err != nil {
		s.fail("suite: server: %v", err)
		return
	}
	windowed, err := startServer(serve.Config{Index: ix})
	if err != nil {
		s.fail("suite: server: %v", err)
		return
	}
	conn := newConn()

	// The ladder: the same query climbs five rungs back to back — bare
	// encoder + engine, the facade, the handler without and with the batch
	// window, the real socket — and each layer's cost is the median of the
	// per-query differences between neighbouring rungs. Pairing cancels
	// what the rungs share (this query's embed cost, the machine's mood
	// this millisecond), which medians taken in separate loops do not. An
	// untimed embed first pulls the query and the prototypes into cache, so
	// the first rung does not pay for all five.
	var rung [5][]float64
	var wire float64
	timed := func(r int, fn func()) {
		t := time.Now()
		fn()
		rung[r] = append(rung[r], us(time.Since(t)))
	}
	deadline := time.Now().Add(5 * s.slice)
	for i := 0; i < 8 || time.Now().Before(deadline); i++ {
		q := queries[i%len(queries)]
		body, err := json.Marshal(serve.SearchRequest{Traj: serve.FromTrajectory(q), K: topK})
		if err != nil {
			s.fail("suite: marshal: %v", err)
			return
		}
		sink = enc.Embed(q)
		timed(0, func() {
			v := enc.Embed(q)
			sink, _ = bare.SearchCtx(ctx, engine.Query{Emb: v, Code: hamming.FromSigns(v)}, topK)
		})
		timed(1, func() { sink, _ = ix.SearchCtx(ctx, q, topK) })
		timed(2, func() { wire += float64(len(body) + s.serveInProcess(noWindow.srv.Handler(), body)) })
		timed(3, func() { s.serveInProcess(windowed.srv.Handler(), body) })
		timed(4, func() {
			status, _, err := roundTrip(ctx, conn, windowed.url+"/search", body)
			if err != nil || status != http.StatusOK {
				s.fail("suite: socket search answered %d (%v)", status, err)
			}
		})
	}
	closeConn(conn)
	step := func(hi, lo int) float64 {
		d := make([]float64, len(rung[hi]))
		for i := range d {
			d[i] = rung[hi][i] - rung[lo][i]
		}
		return median(d)
	}
	s.out.set("index.search_ms", median(rung[1])/1e3, "ms")
	s.out.set("index.facade_self_us", step(1, 0), "us")
	s.out.set("serve.handler_self_us", step(2, 1), "us")
	s.out.set("serve.batch_wait_ms", step(3, 2)/1e3, "ms")
	s.out.set("serve.loopback_ms", step(4, 3)/1e3, "ms")
	s.out.set("serve.json_bytes_per_search", wire/float64(len(rung[2])), "B")

	per := make([]float64, 0, len(adds))
	for _, t := range adds {
		t0 := time.Now()
		if _, err := ix.AddCtx(ctx, t); err != nil {
			s.fail("suite: durable add: %v", err)
			break
		}
		per = append(per, ms(time.Since(t0)))
	}
	s.out.set("index.add_durable_ms", median(per), "ms")
	if size, err := dirBytes(opts.WALDir); err == nil {
		points := 0
		for _, t := range append(append([]traj2hash.Trajectory{}, db...), adds...) {
			points += len(t)
		}
		s.out.set("wal.disk_bytes_per_user_byte", float64(size)/float64(16*points), "ratio")
	} else {
		s.fail("suite: sizing the WAL directory: %v", err)
	}
	t0 := time.Now()
	if err := ix.Close(); err != nil {
		s.fail("suite: close: %v", err)
	}
	s.out.set("index.close_ms", ms(time.Since(t0)), "ms")
	// Draining a server closes its index again, which Close allows.
	for _, l := range []*liveServer{noWindow, windowed} {
		if err := l.stop(); err != nil {
			s.fail("suite: stopping server: %v", err)
		}
	}
	t0 = time.Now()
	re, err := traj2hash.NewIndexWith(enc, nil, opts)
	s.out.set("index.reopen_ms", ms(time.Since(t0)), "ms")
	s.checks++
	if err != nil {
		s.fail("suite: reopen: %v", err)
		return
	}
	if re.Len() != len(db)+len(per) {
		s.fail("suite: reopened index has %d items, wrote %d", re.Len(), len(db)+len(per))
	}
	if err := re.Close(); err != nil {
		s.fail("suite: close: %v", err)
	}
}
