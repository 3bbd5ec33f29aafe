package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"traj2hash"
	"traj2hash/internal/core"
	"traj2hash/internal/hamming"
	"traj2hash/internal/serve"
)

// serveRate is the offered load the end-to-end numbers of serve_mixed are
// taken at; the traced run also offers half and double.
const serveRate = 200

// latencyLimit is the deadline a request must meet, counted from when it
// was due, for a rate to count as sustained.
const latencyLimit = 25 * time.Millisecond

// liveServer is a serve.Server running on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startServer runs cfg on 127.0.0.1:0 until stop is called. Stopping
// drains the server, which also closes cfg.Index.
func startServer(cfg serve.Config) (*liveServer, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &liveServer{srv: srv, url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { l.done <- srv.Run(ctx, ln) }()
	return l, nil
}

// stop drains the server and waits until Run has returned.
func (l *liveServer) stop() error {
	l.cancel()
	return <-l.done
}

// newConn is one keep-alive connection: a client whose transport may hold
// exactly one connection to the server.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func closeConn(c *http.Client) {
	if tr, ok := c.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// roundTrip posts body and returns the status and the raw reply.
func roundTrip(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// post marshals in, posts it, and decodes a 200 reply into out.
func post(ctx context.Context, c *http.Client, url string, in, out any) (status int, err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	status, raw, err := roundTrip(ctx, c, url, body)
	if err != nil || status != http.StatusOK {
		return status, err
	}
	return status, json.Unmarshal(raw, out)
}

func goodSearch(status int, r serve.SearchResponse) bool {
	return status == http.StatusOK && r.Complete && len(r.Results) == topK
}

// schedOp is one pre-drawn request of the traffic mix.
type schedOp struct {
	kind  opKind
	query int // index into the query pool (searches)
}

// drawSchedule draws n requests: 85 % search, 9 % add, 3 % update, 3 %
// delete, with search queries Zipf(s = 1.1) over the pool.
func drawSchedule(seed int64, n, pool int) []schedOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(pool-1))
	out := make([]schedOp, n)
	for i := range out {
		switch p := rng.Intn(100); {
		case p < 85:
			out[i] = schedOp{kind: opSearch, query: int(zipf.Uint64())}
		case p < 94:
			out[i] = schedOp{kind: opAdd}
		case p < 97:
			out[i] = schedOp{kind: opUpdate}
		default:
			out[i] = schedOp{kind: opDelete}
		}
	}
	return out
}

// connState is what one connection's worker knows: the ids it added and
// has not deleted (it updates and deletes only those, so two workers
// never race on one id), and its tallies.
type connState struct {
	client  *http.Client
	owned   []int       // live ids this worker added, oldest first
	trip    map[int]int // id → index into adds of the trip it now holds
	added   int
	deleted int
	shed    int
}

type serveFixture struct {
	e     env
	enc   *core.GeoPTH
	ix    *traj2hash.Index
	live  *liveServer
	conns []*connState
	pool  []traj2hash.Trajectory
	adds  []traj2hash.Trajectory
	sched []schedOp
	base  atomic.Int64 // requests issued by earlier windows
	n0    int          // live items after set-up
	sum   string
}

func setupServe(ctx context.Context, e env, reg *traj2hash.MetricsRegistry, dir string) (fixture, error) {
	db := e.trips(1, e.sc.serveDB)
	pool := e.trips(2, e.sc.servePool)
	adds := e.trips(3, 2048)
	enc, err := e.geopth(db, e.sc.maxLen)
	if err != nil {
		return nil, err
	}
	opts := e.indexOptions()
	opts.Metrics = reg
	opts.WALDir = filepath.Join(dir, "wal")
	opts.WALSyncEvery = 1
	ix, err := traj2hash.NewIndexWith(enc, nil, opts)
	if err != nil {
		return nil, err
	}
	if err := ingest(ctx, ix, db); err != nil {
		return nil, err
	}
	live, err := startServer(serve.Config{Index: ix, Metrics: reg})
	if err != nil {
		return nil, err
	}
	f := &serveFixture{
		e: e, enc: enc, ix: ix, live: live, pool: pool, adds: adds,
		sched: drawSchedule(e.seed, 8192, len(pool)),
		n0:    ix.Len(), sum: checksumOf(db, pool, adds),
	}
	for w := 0; w < e.workers; w++ {
		f.conns = append(f.conns, &connState{client: newConn(), trip: map[int]int{}})
	}
	return f, nil
}

func (f *serveFixture) checksum() string      { return f.sum }
func (f *serveFixture) primary(k opKind) bool { return searchKind(k) }

func (f *serveFixture) close() error {
	for _, c := range f.conns {
		closeConn(c.client)
	}
	return f.live.stop() // drains, then closes the index
}

// request issues scheduled request gi on connection c.
func (f *serveFixture) request(ctx context.Context, c *connState, gi int) (opKind, bool) {
	s := f.sched[gi%len(f.sched)]
	if s.kind == opSearch {
		var out serve.SearchResponse
		status, err := post(ctx, c.client, f.live.url+"/search",
			serve.SearchRequest{Traj: serve.FromTrajectory(f.pool[s.query]), K: topK}, &out)
		if status == http.StatusServiceUnavailable {
			c.shed++
		}
		return opSearch, err == nil && goodSearch(status, out)
	}
	ti := gi % len(f.adds)
	var out serve.MutateResponse
	switch {
	case s.kind == opUpdate && len(c.owned) > 0:
		id := c.owned[gi%len(c.owned)]
		status, err := post(ctx, c.client, f.live.url+"/update",
			serve.MutateRequest{ID: id, Traj: serve.FromTrajectory(f.adds[ti])}, &out)
		if err != nil || status != http.StatusOK {
			return opUpdate, false
		}
		c.trip[id] = ti
		return opUpdate, true
	case s.kind == opDelete && len(c.owned) > 0:
		id := c.owned[0]
		status, err := post(ctx, c.client, f.live.url+"/delete", serve.MutateRequest{ID: id}, &out)
		if err != nil || status != http.StatusOK {
			return opDelete, false
		}
		c.owned = c.owned[1:]
		delete(c.trip, id)
		c.deleted++
		return opDelete, true
	}
	// An add — also what an update or delete becomes while this worker
	// owns nothing yet.
	status, err := post(ctx, c.client, f.live.url+"/add",
		serve.MutateRequest{Traj: serve.FromTrajectory(f.adds[ti])}, &out)
	if err != nil || status != http.StatusOK {
		return opAdd, false
	}
	c.owned = append(c.owned, out.ID)
	c.trip[out.ID] = ti
	c.added++
	return opAdd, true
}

// windowAt offers rate requests per second, open loop, for dur.
func (f *serveFixture) windowAt(ctx context.Context, rate float64, dur time.Duration) []sample {
	base := int(f.base.Load())
	out := openLoop(ctx, len(f.conns), rate, dur, func(w, i int) (opKind, bool) {
		return f.request(ctx, f.conns[w], base+i)
	})
	f.base.Add(int64(rate * dur.Seconds()))
	return out
}

func (f *serveFixture) window(ctx context.Context, dur time.Duration) []sample {
	return f.windowAt(ctx, serveRate, dur)
}

func (f *serveFixture) named(samples []sample, from, to time.Duration, out *metricSet) {
	searchNamed(summarize(samples, from, to, searchKind), false, out)
	mut := summarize(samples, from, to, mutationKind)
	mutateNamed(mut, out)
	out.set("mutate_samples", float64(mut.n), "count")
	out.set("serve.sched_lag_p99_ms", summarize(samples, from, to, anyKind).lagP99, "ms")
}

func sameTrip(a, b traj2hash.Trajectory) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

func (f *serveFixture) verify(_ context.Context, extras *metricSet) (int, []string) {
	var problems []string
	checks := 1
	want := f.n0
	var shed int
	for _, c := range f.conns {
		want += c.added - c.deleted
		shed += c.shed
		for _, id := range c.owned {
			checks++
			got, ok := f.ix.Trajectory(id)
			if !ok || !sameTrip(got, f.adds[c.trip[id]]) {
				problems = append(problems, fmt.Sprintf("acknowledged id %d does not hold the trajectory that was sent", id))
				continue
			}
			emb, _ := f.ix.Embedding(id)
			if rs := f.ix.SearchEuclideanByVec(emb, 1); len(rs) != 1 || rs[0].Score > 1e-18 {
				problems = append(problems, fmt.Sprintf("acknowledged id %d is not findable by its own embedding", id))
			}
		}
	}
	if got := f.ix.Len(); got != want {
		problems = append(problems, fmt.Sprintf("Len is %d, acknowledged mutations imply %d", got, want))
	}
	extras.set("shed_requests", float64(shed), "count")
	return checks, problems
}

// trace issues one search over HTTP as three client-side spans, then
// answers the same query in process, stage by stage. The server's inside
// cannot be spanned from here, so the serving layer's share is what the
// HTTP operation costs beyond the in-process one.
func (f *serveFixture) trace(ctx context.Context, rec *recorder, i int) bool {
	s := f.sched[i%len(f.sched)]
	q := f.pool[s.query]
	c := f.conns[0].client

	op := rec.begin("op.http_search", "")
	var body, raw []byte
	var status int
	var err error
	rec.child(op, "json.marshal", layerServe, func() {
		body, err = json.Marshal(serve.SearchRequest{Traj: serve.FromTrajectory(q), K: topK})
	})
	if err == nil {
		rec.child(op, "http.roundtrip", layerServe, func() { status, raw, err = roundTrip(ctx, c, f.live.url+"/search", body) })
	}
	var out serve.SearchResponse
	if err == nil {
		rec.child(op, "json.decode", layerServe, func() { err = json.Unmarshal(raw, &out) })
	}
	rec.end(op)
	ok := err == nil && goodSearch(status, out)

	ref := rec.begin("op.search", "")
	var emb []float64
	rec.child(ref, "core.embed", layerCore, func() { emb = f.enc.Embed(q) })
	rec.child(ref, "hamming.sign", layerHamming, func() { _ = hamming.FromSigns(emb) })
	rec.child(ref, "engine.search", layerEngine, func() {
		rs, st := f.ix.SearchByVecCtx(ctx, emb, topK)
		ok = ok && completeTopK(rs, st)
	})
	rec.end(ref)
	return ok
}

func (f *serveFixture) shares(rec *recorder) layerShares {
	byLayer, rootSelf, rootDurs := selfTimes(rec.snapshot())
	out := layerShares{byLayer: map[string]float64{}, ops: len(rootDurs["op.http_search"])}
	total := sum(rootDurs["op.http_search"])
	if total <= 0 {
		return out
	}
	for _, l := range []string{layerCore, layerHamming, layerEngine} {
		out.byLayer[l] = byLayer[l] / total
	}
	// The three HTTP spans contain the server's embed and search; the
	// in-process reference says how much of them that is.
	out.byLayer[layerServe] = (byLayer[layerServe] - sum(rootDurs["op.search"])) / total
	out.unattributed = (rootSelf["op.http_search"] + rootSelf["op.search"]) / total
	out.opMedianUS = median(rootDurs["op.http_search"]) / 1e3
	return out
}

// sweep offers serveRate/2, serveRate and 2·serveRate for dur each and
// reports latency at each, and the highest rate at which ≥ 99 % of the
// requests sent met latencyLimit while the generator kept its schedule
// (a generator falling behind is a backlog growing).
func (f *serveFixture) sweep(ctx context.Context, dur time.Duration, extras *metricSet) {
	var maxOK float64
	for _, rate := range []float64{serveRate / 2, serveRate, 2 * serveRate} {
		samples := f.windowAt(ctx, rate, dur)
		st := summarize(samples, 0, dur, anyKind)
		var met int
		var tailLag time.Duration
		for _, s := range samples {
			if s.ok && s.latency() <= latencyLimit {
				met++
			}
			if s.due >= dur-dur/10 && s.start-s.due > tailLag {
				tailLag = s.start - s.due
			}
		}
		var within float64 // share of requests sent that met the limit
		if len(samples) > 0 {
			within = float64(met) / float64(len(samples))
		}
		if within >= 0.99 && tailLag < latencyLimit && rate > maxOK {
			maxOK = rate
		}
		pre := fmt.Sprintf("serve.rate%d.", int(rate))
		extras.set(pre+"p50_ms", st.p50, "ms")
		extras.set(pre+"tail_ms", st.tail, "ms")
		extras.set(pre+"tail_percentile", st.tailQ*100, "%")
		extras.set(pre+"within_limit_share", within, "ratio")
		extras.set(pre+"samples", float64(st.n), "count")
		extras.set(pre+"sched_lag_p99_ms", st.lagP99, "ms")
	}
	extras.set("serve.max_ok_rate_rps", maxOK, "1/s")
}
