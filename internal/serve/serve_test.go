package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"traj2hash"
	"traj2hash/internal/obs"
)

// serveDataset builds one small deterministic dataset per process.
var (
	dsOnce sync.Once
	dsMemo *traj2hash.Dataset
)

func serveDataset(t testing.TB) *traj2hash.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsMemo = traj2hash.BuildDataset(traj2hash.Porto(),
			traj2hash.SplitSpec{Seed: 10, Validation: 6, Corpus: 30, Queries: 6, Database: 40}, 9)
	})
	return dsMemo
}

// testIndex builds a training-free GeoPTH index over the fixture
// dataset's database split with the given options.
func testIndex(t testing.TB, opts traj2hash.Options) (*traj2hash.Index, *traj2hash.Dataset) {
	t.Helper()
	ds := serveDataset(t)
	enc, err := traj2hash.NewEncoder(traj2hash.EncoderGeoPTH, traj2hash.DefaultConfig(16), ds.All())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := traj2hash.NewIndexWith(enc, ds.Database, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds
}

// startServer runs a Server on an ephemeral loopback port and returns
// its base URL, a cancel that starts the drain, and the channel Run's
// error lands on.
func startServer(t testing.TB, cfg Config) (string, context.CancelFunc, chan error) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- srv.Run(ctx, ln)
		close(errc) // tests may consume the error; cleanup still unblocks
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-errc:
		case <-time.After(10 * time.Second):
			t.Error("server did not drain within 10s")
		}
	})
	return "http://" + ln.Addr().String(), cancel, errc
}

// postJSON POSTs v and decodes the JSON reply into out (skipped when
// out is nil), returning the status code.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding %d reply: %v", url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// slowIndex is a real index under the daemon whose every search call
// first waits d, or until the batch's deadline: the seam through which
// these tests keep a flight in the air for a known time.
type slowIndex struct {
	*traj2hash.Index
	d time.Duration
}

func (s slowIndex) SearchBatchCtx(ctx context.Context, qs []traj2hash.Trajectory, k int) ([][]traj2hash.Result, []traj2hash.Status) {
	select {
	case <-time.After(s.d):
	case <-ctx.Done():
	}
	return s.Index.SearchBatchCtx(ctx, qs, k)
}

// slowFlights returns a test index whose searches take d.
func slowFlights(t *testing.T, d time.Duration, opts traj2hash.Options) (slowIndex, *traj2hash.Dataset) {
	t.Helper()
	idx, ds := testIndex(t, opts)
	return slowIndex{Index: idx, d: d}, ds
}

// stalledShard is a real index under the daemon that answers like a
// two-shard index whose second shard outlives every deadline: at the
// batch's deadline it returns the real answer as the first shard's,
// marked incomplete with one shard answered and the deadline's error.
// The engine's own salvage of the shards that answered is
// internal/faultinject's TestDeadlineMidFanoutReturnsPartial; this is the
// daemon's side of it.
type stalledShard struct{ *traj2hash.Index }

func (s stalledShard) SearchBatchCtx(ctx context.Context, qs []traj2hash.Trajectory, k int) ([][]traj2hash.Result, []traj2hash.Status) {
	rs, sts := s.Index.SearchBatchCtx(context.Background(), qs, k)
	<-ctx.Done()
	for i := range sts {
		sts[i] = traj2hash.Status{ShardsOK: 1, Err: ctx.Err()}
	}
	return rs, sts
}

// TestServeEndpointRoundTrips drives every endpoint once over a live
// listener: search, the three mutations (including their 404/410 error
// mapping), stats, healthz, and the malformed-input paths.
func TestServeEndpointRoundTrips(t *testing.T) {
	idx, ds := testIndex(t, traj2hash.Options{})
	reg := obs.New()
	base, _, _ := startServer(t, Config{Index: idx, Metrics: reg, DefaultTimeout: 5 * time.Second})

	var sr SearchResponse
	if code := postJSON(t, base+"/search", SearchRequest{Traj: FromTrajectory(ds.Queries[0]), K: 5}, &sr); code != http.StatusOK {
		t.Fatalf("/search status %d", code)
	}
	if !sr.Complete || len(sr.Results) != 5 || sr.Batched < 1 {
		t.Fatalf("search reply %+v, want 5 complete results with Batched >= 1", sr)
	}

	n := idx.Len()
	var mr MutateResponse
	if code := postJSON(t, base+"/add", MutateRequest{Traj: FromTrajectory(ds.Queries[1])}, &mr); code != http.StatusOK {
		t.Fatalf("/add status %d", code)
	}
	if mr.Len != n+1 {
		t.Fatalf("add: len %d, want %d", mr.Len, n+1)
	}
	if code := postJSON(t, base+"/update", MutateRequest{ID: mr.ID, Traj: FromTrajectory(ds.Queries[2])}, nil); code != http.StatusOK {
		t.Fatalf("/update status %d", code)
	}
	if code := postJSON(t, base+"/delete", MutateRequest{ID: mr.ID}, nil); code != http.StatusOK {
		t.Fatalf("/delete status %d", code)
	}
	if code := postJSON(t, base+"/delete", MutateRequest{ID: mr.ID}, nil); code != http.StatusGone {
		t.Errorf("double delete status %d, want 410", code)
	}
	if code := postJSON(t, base+"/delete", MutateRequest{ID: 999999}, nil); code != http.StatusNotFound {
		t.Errorf("delete of unknown id status %d, want 404", code)
	}
	if code := postJSON(t, base+"/search", SearchRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty-trajectory search status %d, want 400", code)
	}
	resp, err := http.Get(base + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search status %d, want 405", resp.StatusCode)
	}

	var st StatsResponse
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Len != idx.Len() || st.Draining {
		t.Errorf("stats %+v, want len %d not draining", st, idx.Len())
	}
	if st.Metrics.Counters["serve.searches"] < 1 {
		t.Errorf("stats metrics %v, want serve.searches >= 1", st.Metrics.Counters)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d, want 200", resp.StatusCode)
	}
}

// TestServeRejectsUnembeddableTrajectories: [[1e200,0]] is valid JSON and
// a non-empty trajectory, but GeoPTH embeds it to NaN in every coordinate.
// /add, /update and /search answer 400, and the refused mutations leave
// the index and the bytes of the WAL directory as they were.
func TestServeRejectsUnembeddableTrajectories(t *testing.T) {
	dir := t.TempDir()
	idx, _ := testIndex(t, traj2hash.Options{WALDir: dir})
	defer idx.Close()
	base, _, _ := startServer(t, Config{Index: idx, DefaultTimeout: 5 * time.Second})
	n := idx.Len()
	disk := walBytes(t, dir)
	bad := [][2]float64{{1e200, 0}}

	var er ErrorResponse
	if code := postJSON(t, base+"/add", MutateRequest{Traj: bad}, &er); code != http.StatusBadRequest {
		t.Errorf("/add status %d (%q), want 400", code, er.Error)
	}
	if code := postJSON(t, base+"/update", MutateRequest{ID: 0, Traj: bad}, &er); code != http.StatusBadRequest {
		t.Errorf("/update status %d (%q), want 400", code, er.Error)
	}
	var sr SearchResponse
	if code := postJSON(t, base+"/search", SearchRequest{Traj: bad, K: 3}, &sr); code != http.StatusBadRequest {
		t.Errorf("/search status %d, want 400", code)
	}
	if sr.Complete || len(sr.Results) != 0 || sr.Err == "" {
		t.Errorf("/search reply %+v, want no results, incomplete, an error", sr)
	}
	if idx.Len() != n {
		t.Errorf("Len = %d after refused mutations, want %d", idx.Len(), n)
	}
	if got := walBytes(t, dir); got != disk {
		t.Error("refused mutations changed the WAL directory")
	}
}

// walBytes concatenates name and content of every file in dir.
func walBytes(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(e.Name())
		sb.Write(b)
	}
	return sb.String()
}

// TestServeCoalescesConcurrentSearches is the micro-batching contract:
// concurrent single searches ride one engine invocation. Proven from
// both sides — the server's obs counters (batch.queries > batch.count)
// and the per-response Batched field the client sees.
func TestServeCoalescesConcurrentSearches(t *testing.T) {
	// Flush-when-idle coalesces what overlaps a flight, so the flights
	// must last long enough for eight HTTP clients to overlap one: the
	// first search takes off alone and the rest share the batch held
	// behind it.
	idx, ds := slowFlights(t, 50*time.Millisecond, traj2hash.Options{})
	reg := obs.New()
	base, _, _ := startServer(t, Config{
		Index: idx, Metrics: reg,
		DefaultTimeout: 5 * time.Second,
		BatchWindow:    time.Second, // generous: the landing, not the window, releases the batch
	})

	const concurrent = 8
	var wg sync.WaitGroup
	batched := make([]int, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sr SearchResponse
			if code := postJSON(t, base+"/search", SearchRequest{Traj: FromTrajectory(ds.Queries[i%len(ds.Queries)]), K: 3}, &sr); code != http.StatusOK {
				t.Errorf("search %d status %d", i, code)
				return
			}
			batched[i] = sr.Batched
		}(i)
	}
	wg.Wait()

	queries := reg.Counter("serve.batch.queries").Value()
	batches := reg.Counter("serve.batch.count").Value()
	if queries != concurrent {
		t.Fatalf("serve.batch.queries = %d, want %d", queries, concurrent)
	}
	if batches >= queries {
		t.Errorf("serve.batch.count = %d for %d queries: nothing coalesced", batches, queries)
	}
	max := 0
	for _, b := range batched {
		if b > max {
			max = b
		}
	}
	if max < 2 {
		t.Errorf("max Batched = %d, want > 1 (concurrent searches must share a batch)", max)
	}
}

// waitForCounter polls c until it reaches want, failing the test if it
// has not within the bound.
func waitForCounter(t *testing.T, c *obs.Counter, want int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter at %d after %v, want %d", c.Value(), within, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// maxBatchWait is the upper edge of the highest occupied bucket of
// serve.batch.wait.seconds.
func maxBatchWait(reg *obs.Registry) float64 {
	return reg.Histogram("serve.batch.wait.seconds", obs.FineLatencyBounds()).Snapshot().Quantile(1)
}

// TestServeLoneSearchSkipsWindow: a search that meets an idle server is
// dispatched at once — the window is a maximum hold, and nothing holds
// a batch when no flush is in flight.
func TestServeLoneSearchSkipsWindow(t *testing.T) {
	idx, ds := testIndex(t, traj2hash.Options{})
	reg := obs.New()
	base, _, _ := startServer(t, Config{Index: idx, Metrics: reg, BatchWindow: 500 * time.Millisecond})

	var sr SearchResponse
	start := time.Now()
	if code := postJSON(t, base+"/search", SearchRequest{Traj: FromTrajectory(ds.Queries[0]), K: 3}, &sr); code != http.StatusOK {
		t.Fatalf("/search status %d", code)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("lone search took %v under a 500ms window, want immediate dispatch", elapsed)
	}
	if sr.Batched != 1 {
		t.Errorf("Batched = %d, want 1", sr.Batched)
	}
	if w := maxBatchWait(reg); !(w < 0.05) {
		t.Errorf("serve.batch.wait.seconds max = %vs, want < 50ms on an idle server", w)
	}
}

// searchBehindFlight starts one search, waits until its flight is in
// the air, then issues a second search and returns when that one has
// been dispatched: how long the dispatch took from the moment the
// second search was issued. Both searches are answered before the test
// ends.
func searchBehindFlight(t *testing.T, base string, reg *obs.Registry, ds *traj2hash.Dataset) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	search := func(i int) {
		defer wg.Done()
		if code := postJSON(t, base+"/search", SearchRequest{Traj: FromTrajectory(ds.Queries[i]), K: 3}, nil); code != http.StatusOK {
			t.Errorf("search %d status %d", i, code)
		}
	}
	flights := reg.Counter("serve.batch.count")
	wg.Add(1)
	go search(0)
	waitForCounter(t, flights, 1, 2*time.Second)
	issued := time.Now()
	wg.Add(1)
	go search(1)
	waitForCounter(t, flights, 2, 10*time.Second)
	return time.Since(issued)
}

// TestServeQueuedSearchLeavesWhenFlightEnds: a search queued behind a
// flight is released by that flight landing — the sticky completion
// signal — not by the window, here fifty times longer than the flight.
func TestServeQueuedSearchLeavesWhenFlightEnds(t *testing.T) {
	idx, ds := slowFlights(t, 100*time.Millisecond, traj2hash.Options{})
	reg := obs.New()
	base, _, _ := startServer(t, Config{Index: idx, Metrics: reg, BatchWindow: 5 * time.Second})

	if held := searchBehindFlight(t, base, reg, ds); held > time.Second {
		t.Errorf("queued search dispatched after %v, want it released when the 100ms flight landed", held)
	}
}

// TestServeWindowIsMaximumHold: with a flight slower than the window, a
// queued search is held for the window and no longer — it takes off
// while the first flight is still in the air.
func TestServeWindowIsMaximumHold(t *testing.T) {
	const window = 100 * time.Millisecond
	idx, ds := slowFlights(t, time.Second, traj2hash.Options{})
	reg := obs.New()
	base, _, _ := startServer(t, Config{Index: idx, Metrics: reg, BatchWindow: window})

	held := searchBehindFlight(t, base, reg, ds)
	if held < window/2 {
		t.Errorf("queued search dispatched after %v: not held although a flight was in the air", held)
	}
	if held > window+500*time.Millisecond {
		t.Errorf("queued search dispatched after %v, want no later than the %v window (the flight lasts 1s)", held, window)
	}
	if w := maxBatchWait(reg); !(w > 0.03 && w < 0.6) {
		t.Errorf("serve.batch.wait.seconds max = %vs, want about the %v window", w, window)
	}
}

// TestServeDeadlineReturnsPartial504 wires a stalled shard underneath the
// daemon: a request whose deadline expires mid-fan-out must come back 504
// carrying the fast shard's partial results, not an empty error.
func TestServeDeadlineReturnsPartial504(t *testing.T) {
	idx, ds := testIndex(t, traj2hash.Options{})
	reg := obs.New()
	base, _, _ := startServer(t, Config{Index: stalledShard{idx}, Metrics: reg})

	var sr SearchResponse
	start := time.Now()
	code := postJSON(t, base+"/search", SearchRequest{Traj: FromTrajectory(ds.Queries[0]), K: 5, TimeoutMS: 100}, &sr)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("request took %v, want prompt return at the 100ms deadline", elapsed)
	}
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (deadline expired mid-fan-out); reply %+v", code, sr)
	}
	if sr.Complete {
		t.Error("reply marked complete despite an expired deadline")
	}
	if len(sr.Results) == 0 {
		t.Error("504 reply carries no results; want the fast shard's partial answer")
	}
	if sr.ShardsOK != 1 {
		t.Errorf("shards ok = %d, want 1 (only the fast shard answered in time)", sr.ShardsOK)
	}
	if !strings.Contains(sr.Err, "deadline") {
		t.Errorf("reply err %q, want the deadline error", sr.Err)
	}
	if got := reg.Counter("serve.timeouts").Value(); got != 1 {
		t.Errorf("serve.timeouts = %d, want 1", got)
	}
}

// TestServeShedsOnOverload fills the admission semaphore with slow
// searches; everything beyond MaxInFlight must be refused immediately
// with 503 and counted on serve.shed, never queued.
func TestServeShedsOnOverload(t *testing.T) {
	idx, ds := slowFlights(t, 400*time.Millisecond, traj2hash.Options{})
	reg := obs.New()
	base, _, _ := startServer(t, Config{
		Index: idx, Metrics: reg,
		MaxInFlight: 2,
		BatchWindow: -1, // no coalescing: each admitted search holds its slot for the full sleep
	})

	const concurrent = 10
	var wg sync.WaitGroup
	codes := make([]int, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postJSON(t, base+"/search", SearchRequest{Traj: FromTrajectory(ds.Queries[0]), K: 3}, nil)
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed despite MaxInFlight=2 and 10 concurrent slow searches")
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	if got := reg.Counter("serve.shed").Value(); got != int64(shed) {
		t.Errorf("serve.shed = %d, but %d clients saw 503", got, shed)
	}
}

// TestServeGracefulDrain is the tentpole's drain contract end to end:
// cancel Run while slow searches are in flight, and every accepted
// request must still complete, the WAL must be fsynced and closed
// (post-drain mutations fail with ErrClosed), nothing may be discarded,
// and a reopened index must recover the served mutations.
func TestServeGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	idx, ds := slowFlights(t, 300*time.Millisecond, traj2hash.Options{WALDir: dir})
	n := idx.Len()
	reg := obs.New()
	base, cancel, errc := startServer(t, Config{Index: idx, Metrics: reg})

	// One durable mutation before the drain; it must survive reopen.
	var mr MutateResponse
	if code := postJSON(t, base+"/add", MutateRequest{Traj: FromTrajectory(ds.Queries[3])}, &mr); code != http.StatusOK {
		t.Fatalf("/add status %d", code)
	}

	const inflight = 4
	var wg sync.WaitGroup
	codes := make([]int, inflight)
	complete := make([]bool, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sr SearchResponse
			codes[i] = postJSON(t, base+"/search", SearchRequest{Traj: FromTrajectory(ds.Queries[i]), K: 3}, &sr)
			complete[i] = sr.Complete
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let the searches reach the slow engine
	cancel()                           // SIGTERM: drain starts with 4 searches in flight
	wg.Wait()

	for i, c := range codes {
		if c != http.StatusOK || !complete[i] {
			t.Errorf("in-flight search %d: status %d complete %v, want 200 complete (drain must finish accepted work)", i, c, complete[i])
		}
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run returned %v after a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	if got := reg.Counter("serve.drain.discarded").Value(); got != 0 {
		t.Errorf("serve.drain.discarded = %d, want 0", got)
	}

	// The listener is closed and the WAL released.
	if _, err := http.Post(base+"/search", "application/json", strings.NewReader("{}")); err == nil {
		t.Error("post-drain request succeeded; want connection refused")
	}
	if _, err := idx.AddCtx(context.Background(), ds.Queries[4]); err != traj2hash.ErrClosed {
		t.Errorf("post-drain Add error %v, want ErrClosed (drain must Close the index)", err)
	}

	// Reopen: the pre-drain add must have been fsynced.
	idx2, _ := testIndex(t, traj2hash.Options{WALDir: dir})
	defer func() {
		if err := idx2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !idx2.Recovery().Recovered {
		t.Fatal("reopened index recovered nothing")
	}
	if idx2.Len() != n+1 {
		t.Errorf("reopened index has %d trajectories, want %d (seed + the served add)", idx2.Len(), n+1)
	}
}

// TestServeDrainNeverResetsABusyConnection is the client's side of the
// drain contract: keep-alive clients that are mid-stream when the drain
// starts must see every request either answered or refused at dial —
// never a connection reset under a request already written, which is
// what closing a just-idle keep-alive connection does to a client that
// had reused it. The lame-duck step (replies carry "Connection: close"
// while the listener is already shut) is what prevents it.
func TestServeDrainNeverResetsABusyConnection(t *testing.T) {
	idx, ds := testIndex(t, traj2hash.Options{})
	base, cancel, errc := startServer(t, Config{Index: idx})

	body, err := json.Marshal(SearchRequest{Traj: FromTrajectory(ds.Queries[0]), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := client.Post(base+"/search", "application/json", bytes.NewReader(body))
				if errors.Is(err, syscall.ECONNREFUSED) {
					return // the drained server's listener is gone: the expected end
				}
				if err != nil {
					t.Errorf("request lost to the drain: %v", err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("reading reply: %v", err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d mid-drain", resp.StatusCode)
					return
				}
				answered.Add(1)
			}
		}()
	}
	// Let all eight connections get warm and busy before the drain.
	for warmUp := time.Now().Add(10 * time.Second); answered.Load() < 200 && time.Now().Before(warmUp); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if err := <-errc; err != nil {
		t.Errorf("Run returned %v after a clean drain", err)
	}
}
