// Package serve is the network serving layer of traj2hash: the HTTP
// daemon core behind cmd/traj2hashd (search/add/delete/update/stats over
// a durable Index) and the shared debug-surface machinery behind the
// CLI's -debug-addr flag (debug.go).
//
// Three serving-discipline mechanisms live here (DESIGN.md "Serving
// layer"):
//
//   - Micro-batching. Searches that arrive while a flush is in flight
//     are coalesced by a flush-when-idle batcher (batcher.go) into one
//     SearchBatchCtx call, amortizing embedding and shard fan-out across
//     the batch; a search that meets an idle server is dispatched at
//     once.
//   - Admission control. A semaphore bounds admitted requests; beyond it
//     the server sheds immediately with 503 and a Status-style degraded
//     JSON body instead of queueing without bound.
//   - Graceful drain. When Run's context is canceled (SIGTERM) the
//     listener stops accepting, open connections are closed behind
//     their next answer (lame duck), every in-flight request completes,
//     the batcher stops, and the Index is Closed — fsyncing the WAL —
//     before Run returns. An accepted request is never dropped.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"traj2hash"
	"traj2hash/internal/obs"
)

// Index is the surface the daemon serves — satisfied by
// *traj2hash.Index. An interface so tests can wedge fakes between the
// HTTP layer and the engine.
type Index interface {
	SearchBatchCtx(ctx context.Context, qs []traj2hash.Trajectory, k int) ([][]traj2hash.Result, []traj2hash.Status)
	AddCtx(ctx context.Context, t traj2hash.Trajectory) (int, error)
	Delete(id int) error
	Update(id int, t traj2hash.Trajectory) error
	Len() int
	Close() error
}

// Config configures a Server. Index is required; every other field has
// a serviceable default.
type Config struct {
	// Index is the trajectory index requests are served from. Run closes
	// it during drain.
	Index Index
	// Metrics receives the serving-layer instruments (serve.* names) and
	// is the payload of the mounted debug /metrics endpoint. nil = off.
	Metrics *obs.Registry
	// DefaultTimeout is the per-request deadline applied when the client
	// sends no timeout_ms of its own (0 = no default deadline).
	DefaultTimeout time.Duration
	// DefaultK is the result count when a search omits k (default 10).
	DefaultK int
	// BatchWindow is the maximum time an open batch is held while a
	// flush is in flight; an idle server dispatches immediately, and a
	// held batch leaves as soon as the flight ahead of it lands (default
	// 2ms; negative disables coalescing — every search becomes a batch
	// of one).
	BatchWindow time.Duration
	// MaxInFlight bounds admitted requests; beyond it the server sheds
	// with 503 (default 256).
	MaxInFlight int
	// DrainTimeout bounds how long drain waits for in-flight requests
	// before abandoning them (default 30s).
	DrainTimeout time.Duration
	// Debug mounts the MountDebug surface (/metrics, /trace, pprof) on
	// the serving mux.
	Debug bool
}

// serveMetrics is the serving layer's instrument set, resolved once at
// construction (nil-safe: a nil registry hands out no-op instruments).
type serveMetrics struct {
	searches       *obs.Counter   // serve.searches — search requests admitted
	mutations      *obs.Counter   // serve.mutations — add/delete/update requests admitted
	shed           *obs.Counter   // serve.shed — requests refused 503 by admission control
	timeouts       *obs.Counter   // serve.timeouts — requests answered 504 (deadline hit)
	batches        *obs.Counter   // serve.batch.count — engine invocations made by the batcher
	batchQueries   *obs.Counter   // serve.batch.queries — searches carried by those invocations
	batchSize      *obs.Histogram // serve.batch.size — coalesced batch size distribution
	batchWait      *obs.Histogram // serve.batch.wait.seconds — per search, enqueue → its flush starting
	latency        *obs.Histogram // serve.request.seconds — admitted-search wall latency
	drainDiscarded *obs.Counter   // serve.drain.discarded — queued searches whose handlers timed out before drain
}

func newServeMetrics(reg *obs.Registry) serveMetrics {
	return serveMetrics{
		searches:       reg.Counter("serve.searches"),
		mutations:      reg.Counter("serve.mutations"),
		shed:           reg.Counter("serve.shed"),
		timeouts:       reg.Counter("serve.timeouts"),
		batches:        reg.Counter("serve.batch.count"),
		batchQueries:   reg.Counter("serve.batch.queries"),
		batchSize:      reg.Histogram("serve.batch.size", obs.CountBounds()),
		batchWait:      reg.Histogram("serve.batch.wait.seconds", obs.FineLatencyBounds()),
		latency:        reg.Histogram("serve.request.seconds", obs.FineLatencyBounds()),
		drainDiscarded: reg.Counter("serve.drain.discarded"),
	}
}

// Server is the daemon core: an http.Handler plus the batcher and drain
// machinery around it. Build with New, serve with Run.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	http *http.Server
	met  serveMetrics

	sem      chan struct{}   // admission semaphore, cap MaxInFlight
	in       chan *searchReq // batcher queue, cap MaxInFlight (an admitted send never blocks)
	quit     chan struct{}   // closed after HTTP shutdown: the dispatcher exits
	wg       sync.WaitGroup  // dispatcher + flush goroutines
	draining atomic.Bool

	// The server's own notion of idle: flights counts flushGroups started
	// and not yet finished; the one that brings it to zero leaves a token
	// in flightsLanded (cap 1, sticky: a landing is never lost on a
	// dispatcher that was not yet listening).
	flights       atomic.Int32
	flightsLanded chan struct{}
}

// New validates cfg, applies defaults, and builds the server. The
// batcher does not run until Run is called.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, errors.New("serve: Config.Index is required")
	}
	s := &Server{cfg: cfg, quit: make(chan struct{}), flightsLanded: make(chan struct{}, 1)}
	c := &s.cfg
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	s.met = newServeMetrics(c.Metrics)
	s.sem = make(chan struct{}, c.MaxInFlight)
	s.in = make(chan *searchReq, c.MaxInFlight)
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/add", s.handleAdd)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Debug {
		MountDebug(mux, cfg.Metrics)
	}
	s.mux = mux
	s.http = &http.Server{Handler: http.HandlerFunc(s.serveHTTP), ReadHeaderTimeout: 5 * time.Second}
	return s, nil
}

// serveHTTP is the listener-side entry: the mux, plus the lame-duck
// half of the drain — once draining, every reply carries "Connection:
// close", so a keep-alive client is told to let go of the connection
// with an answer in hand instead of finding it reset under its next
// request.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Connection", "close")
	}
	s.mux.ServeHTTP(w, r)
}

// Handler returns the serving mux (for tests that drive the server
// without a listener; production goes through Run).
func (s *Server) Handler() http.Handler { return s.mux }

// Run serves ln until ctx is canceled, then drains and returns: the
// listener stops accepting (new connections are refused), every
// in-flight request runs to completion (bounded by DrainTimeout), the
// batcher stops, and the Index is Closed — which fsyncs and releases
// the WAL. An accepted request is never dropped by drain; requests
// arriving after cancellation are refused at the TCP level, which a
// well-behaved client retries against another replica.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.dispatch()
	}()
	srvErr := make(chan error, 1)
	go func() { srvErr <- s.http.Serve(ln) }()

	// Drain protocol. Order matters: (1) mark draining so /healthz turns
	// 503 for load balancers and every reply says "Connection: close",
	// stop accepting, and hold that lame-duck state for a moment: a
	// busy keep-alive client has its connection closed behind an answer
	// and its redial refused, where http.Server.Shutdown — which closes
	// a connection the instant it looks idle — would reset it under a
	// request the client had already written; (2) Shutdown waits for
	// every handler to return — the batcher is still running, so queued
	// searches keep completing; (3) only then stop the dispatcher via
	// quit (never by closing s.in: a handler that outlived DrainTimeout
	// could still be sending); (4) wait for flush goroutines; (5) close
	// the index, fsyncing the WAL.
	var serveFailed, lnErr error
	select {
	case <-ctx.Done():
		s.draining.Store(true)
		lnErr = ln.Close()
		// Serve returns as soon as Accept fails on the closed listener.
		if err := <-srvErr; !errors.Is(err, net.ErrClosed) {
			serveFailed = err
		}
		time.Sleep(lameDuck)
	case err := <-srvErr:
		// Serve gave up on its own: nothing is left to lame-duck.
		s.draining.Store(true)
		if !errors.Is(err, http.ErrServerClosed) {
			serveFailed = err
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	shutErr := s.http.Shutdown(shutCtx)
	close(s.quit)
	s.wg.Wait()
	closeErr := s.cfg.Index.Close()
	return errors.Join(serveFailed, lnErr, shutErr, closeErr)
}

// lameDuck is how long a draining server keeps answering on its open
// connections — each reply closing its connection — before Shutdown
// closes whatever is idle. It only has to outlast the gap between two
// requests of a busy client; a connection quiet for this long is safe
// to close.
const lameDuck = 100 * time.Millisecond

// ---- request/response JSON shapes (shared with cmd/trajload) ----

// SearchRequest is the POST /search body.
type SearchRequest struct {
	Traj [][2]float64 `json:"traj"`
	// K is the result count (0 = the server's DefaultK).
	K int `json:"k,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds (0 = the
	// server's DefaultTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Result is one search hit in a response.
type Result struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// SearchResponse is the POST /search reply — including the degraded
// shapes: 200 with complete=false carries the partial answer of a
// panicked shard; 504 carries whatever shards answered before the
// deadline (possibly nothing) plus the deadline error.
type SearchResponse struct {
	Results      []Result `json:"results"`
	Complete     bool     `json:"complete"`
	ShardsOK     int      `json:"shards_ok"`
	ShardsFailed int      `json:"shards_failed"`
	// Batched is the size of the coalesced batch this query rode in — 1
	// means no coalescing happened.
	Batched int    `json:"batched"`
	Err     string `json:"err,omitempty"`
}

// MutateRequest is the POST /add, /delete, and /update body (Traj is
// ignored by /delete; ID by /add).
type MutateRequest struct {
	ID   int          `json:"id"`
	Traj [][2]float64 `json:"traj,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds (0 = the
	// server's DefaultTimeout).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MutateResponse is the mutation reply.
type MutateResponse struct {
	ID  int `json:"id"`
	Len int `json:"len"`
}

// ErrorResponse is the body of every non-2xx reply that is not a
// SearchResponse: Status-style — an explicit error plus the (empty)
// degraded answer shape.
type ErrorResponse struct {
	Error    string   `json:"error"`
	Complete bool     `json:"complete"`
	Results  []Result `json:"results"`
}

// StatsResponse is the GET /stats reply: index shape, drain state, the
// request-latency quantiles (seconds, from serve.request.seconds; null
// until a request has been observed, and always without a registry), and
// the full metrics snapshot.
type StatsResponse struct {
	Len      int          `json:"len"`
	Draining bool         `json:"draining"`
	P50      *float64     `json:"p50_seconds"`
	P99      *float64     `json:"p99_seconds"`
	P999     *float64     `json:"p999_seconds"`
	Metrics  obs.Snapshot `json:"metrics"`
}

// Quantile is the JSON form of h's q-quantile: nil (null) when h has no
// observations, whose quantile is NaN and which encoding/json refuses.
func Quantile(h obs.HistogramSnapshot, q float64) *float64 {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// toTrajectory converts the wire shape to a trajectory.
func toTrajectory(pts [][2]float64) traj2hash.Trajectory {
	if len(pts) == 0 {
		return nil
	}
	t := make(traj2hash.Trajectory, len(pts))
	for i, p := range pts {
		t[i] = traj2hash.Point{X: p[0], Y: p[1]}
	}
	return t
}

// FromTrajectory converts a trajectory to the wire shape — the inverse
// of the decode the handlers do; cmd/trajload builds request bodies
// with it.
func FromTrajectory(t traj2hash.Trajectory) [][2]float64 {
	out := make([][2]float64, len(t))
	for i, p := range t {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

func toResultJSON(rs []traj2hash.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Score: r.Score}
	}
	return out
}

// writeJSON marshals v before touching the ResponseWriter so an encode
// failure can still change the status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(b); err != nil {
		return // client went away mid-write; nothing useful to do
	}
}

// ---- handlers ----

// admit tries to take an admission slot; on overload it sheds with 503
// and a Status-style degraded body. The returned release func is nil
// when admission failed.
func (s *Server) admit(w http.ResponseWriter) func() {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }
	default:
		s.met.shed.Inc()
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:   "overloaded: admission queue full, request shed",
			Results: []Result{},
		})
		return nil
	}
}

// decodeBody decodes a JSON request body, answering 400 itself on
// malformed input. The bool reports success.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{
			Error:   "POST required",
			Results: []Result{},
		})
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:   fmt.Sprintf("decoding request: %v", err),
			Results: []Result{},
		})
		return false
	}
	return true
}

// requestCtx derives the request's working context: the client's
// timeout_ms, else the server default, else no deadline.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// handleSearch is POST /search: admission, then the batcher coalesces
// this query with its concurrent neighbors into one engine invocation.
// Status mapping: complete answers are 200; shard-panic degradation is
// 200 with complete=false; a deadline hit is 504 carrying whatever
// shards answered in time (the partial answer).
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	traj := toTrajectory(req.Traj)
	if len(traj) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty trajectory", Results: []Result{}})
		return
	}
	release := s.admit(w)
	if release == nil {
		return
	}
	defer release()
	s.met.searches.Inc()

	k := req.K
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()

	start := time.Now()
	sr := &searchReq{traj: traj, k: k, enqueued: start, resp: make(chan searchResult, 1)}
	if d, ok := ctx.Deadline(); ok {
		sr.deadline = d
	}
	// cap(s.in) == MaxInFlight and we hold an admission slot, so this
	// send cannot block; the ctx arm is belt-and-braces.
	select {
	case s.in <- sr:
	case <-ctx.Done():
		s.met.timeouts.Inc()
		writeJSON(w, http.StatusGatewayTimeout, SearchResponse{
			Results: []Result{}, Err: ctx.Err().Error(),
		})
		return
	}
	select {
	case res := <-sr.resp:
		s.met.latency.Observe(time.Since(start).Seconds())
		s.writeSearchResponse(w, res)
	case <-ctx.Done():
		// The deadline fired while the batch was in flight. The engine
		// honors the same deadline — its fan-out salvages per-shard
		// partial results and returns promptly once it expires — so give
		// the batch a short grace to deliver that partial answer before
		// falling back to an empty 504.
		select {
		case res := <-sr.resp:
			s.met.latency.Observe(time.Since(start).Seconds())
			s.writeSearchResponse(w, res)
		case <-time.After(deadlineGrace):
			s.met.timeouts.Inc()
			s.met.latency.Observe(time.Since(start).Seconds())
			writeJSON(w, http.StatusGatewayTimeout, SearchResponse{
				Results: []Result{}, Err: ctx.Err().Error(),
			})
		}
	}
}

// deadlineGrace is how long an expired search waits for its in-flight
// batch to deliver the engine's salvaged partial answer before giving
// up with an empty 504. The engine returns promptly at the deadline, so
// this only delays requests whose batch is truly wedged.
const deadlineGrace = 250 * time.Millisecond

// writeSearchResponse maps an engine Status onto HTTP: deadline errors
// are 504 (with the partial results the engine salvaged); a trajectory
// the encoder cannot embed to finite coordinates is 400; other
// degradation (shard panics) stays 200 with complete=false.
func (s *Server) writeSearchResponse(w http.ResponseWriter, res searchResult) {
	resp := SearchResponse{
		Results:      toResultJSON(res.results),
		Complete:     res.status.Complete,
		ShardsOK:     res.status.ShardsOK,
		ShardsFailed: res.status.ShardsFailed,
		Batched:      res.batched,
	}
	code := http.StatusOK
	if res.status.Err != nil {
		resp.Err = res.status.Err.Error()
		switch {
		case errors.Is(res.status.Err, context.DeadlineExceeded), errors.Is(res.status.Err, context.Canceled):
			code = http.StatusGatewayTimeout
			s.met.timeouts.Inc()
		case errors.Is(res.status.Err, traj2hash.ErrNonFiniteEmbedding):
			code = http.StatusBadRequest
		}
	}
	writeJSON(w, code, resp)
}

// writeMutateError maps the index's typed mutation errors onto HTTP.
func writeMutateError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, traj2hash.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, traj2hash.ErrDeleted):
		code = http.StatusGone
	case errors.Is(err, traj2hash.ErrNonFiniteEmbedding):
		code = http.StatusBadRequest
	case errors.Is(err, traj2hash.ErrClosed):
		// The WAL is released (drain finished under us): durability can
		// no longer be promised, so the mutation was refused whole.
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = http.StatusGatewayTimeout
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error(), Results: []Result{}})
}

// handleAdd is POST /add: {"traj": [[x,y],...]} → {"id": n, "len": m}.
// Mutations bypass the batcher (there is nothing to coalesce — the WAL
// already group-fsyncs) but share the admission semaphore.
func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	traj := toTrajectory(req.Traj)
	if len(traj) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty trajectory", Results: []Result{}})
		return
	}
	release := s.admit(w)
	if release == nil {
		return
	}
	defer release()
	s.met.mutations.Inc()
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	id, err := s.cfg.Index.AddCtx(ctx, traj)
	if err != nil {
		writeMutateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{ID: id, Len: s.cfg.Index.Len()})
}

// handleDelete is POST /delete: {"id": n} → {"id": n, "len": m}.
// Unknown ids are 404, already-deleted ids 410.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	release := s.admit(w)
	if release == nil {
		return
	}
	defer release()
	s.met.mutations.Inc()
	if err := s.cfg.Index.Delete(req.ID); err != nil {
		writeMutateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{ID: req.ID, Len: s.cfg.Index.Len()})
}

// handleUpdate is POST /update: {"id": n, "traj": [[x,y],...]}.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	traj := toTrajectory(req.Traj)
	if len(traj) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty trajectory", Results: []Result{}})
		return
	}
	release := s.admit(w)
	if release == nil {
		return
	}
	defer release()
	s.met.mutations.Inc()
	if err := s.cfg.Index.Update(req.ID, traj); err != nil {
		writeMutateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{ID: req.ID, Len: s.cfg.Index.Len()})
}

// handleStats is GET /stats: index shape, drain state, request-latency
// quantiles, and the full metrics snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.Metrics.Snapshot()
	lat := snap.Histograms["serve.request.seconds"]
	writeJSON(w, http.StatusOK, StatsResponse{
		Len:      s.cfg.Index.Len(),
		Draining: s.draining.Load(),
		P50:      Quantile(lat, 0.50),
		P99:      Quantile(lat, 0.99),
		P999:     Quantile(lat, 0.999),
		Metrics:  snap,
	})
}

// handleHealthz is the load-balancer probe: 200 while serving, 503 once
// draining (new work should go to another replica).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if _, err := fmt.Fprintln(w, "ok"); err != nil {
		return
	}
}
