// Command trajload is a load generator for traj2hashd: it replays a
// Zipf-skewed query mix from a dataset against a running daemon with
// bounded concurrency and reports outcome counts plus p50/p99/p999
// request latency.
//
//	trajload -addr 127.0.0.1:8080 -data dataset.gob -n 1000 -c 16
//
// With -n 0 it runs until the daemon refuses connections — aim a
// SIGTERM at the daemon mid-run to exercise graceful drain: every
// request the daemon accepted must complete (the "dropped" count must
// stay zero), and connection-refused after drain is the expected way
// the run ends. The exit status is the verdict: non-zero when any
// accepted request was dropped, when nothing succeeded at all, or when
// -max-p99 was exceeded.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"traj2hash"
	"traj2hash/internal/data"
	"traj2hash/internal/obs"
	"traj2hash/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trajload:", err)
		os.Exit(1)
	}
}

// tally is the shared outcome ledger. Everything is atomic: workers
// bump counts concurrently and main reads them after Wait.
type tally struct {
	ok         atomic.Int64 // 200 with complete=true
	partial    atomic.Int64 // 200 with complete=false (degraded but answered)
	shed       atomic.Int64 // 503: admission control refused before accepting
	timeouts   atomic.Int64 // 504: deadline hit
	clientErr  atomic.Int64 // 4xx and other non-success statuses
	refused    atomic.Int64 // connection refused: the daemon is not accepting (expected after drain)
	dropped    atomic.Int64 // accepted then died mid-flight — the drain-correctness violation
	maxBatched atomic.Int64 // largest coalesced batch any response rode in
}

func run(args []string) error {
	fs := flag.NewFlagSet("trajload", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "daemon address (host:port)")
	in := fs.String("data", "dataset.gob", "dataset path; its query split is the request pool")
	n := fs.Int("n", 200, "total requests (0 = run until the daemon refuses connections)")
	c := fs.Int("c", 8, "concurrent workers")
	k := fs.Int("k", 10, "results per search")
	timeoutMS := fs.Int("timeout-ms", 0, "per-request deadline sent to the daemon (0 = daemon default)")
	zipfS := fs.Float64("zipf-s", 1.1, "Zipf skew exponent over the query pool (s > 1)")
	zipfV := fs.Float64("zipf-v", 1.0, "Zipf v parameter (v >= 1)")
	seed := fs.Int64("seed", 1, "workload seed (worker i uses seed+i)")
	mix := fs.String("mix", "search=0.9,add=0.1",
		"operation mix, comma-separated op=weight (ops: search add update delete; update/delete apply only to ids this run added, else fall back to search)")
	jsonOut := fs.Bool("json", false, "print the summary as JSON instead of text")
	benchOut := fs.String("bench-out", "",
		"append Go-benchmark-style latency lines (ns/op) to this file for cmd/benchjson")
	maxP99 := fs.Duration("max-p99", 0, "fail (exit 1) if search p99 exceeds this (0 = no gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *zipfS <= 1 || *zipfV < 1 {
		return fmt.Errorf("need -zipf-s > 1 and -zipf-v >= 1")
	}
	weights, err := parseMix(*mix)
	if err != nil {
		return err
	}

	ds, err := data.Load(*in)
	if err != nil {
		return err
	}
	pool := append(append([]traj2hash.Trajectory{}, ds.Queries...), ds.Database...)
	if len(pool) == 0 {
		return fmt.Errorf("dataset %s has no queries or database trajectories", *in)
	}

	base := "http://" + serve.ListenAddr(*addr)
	reg := obs.New()
	lat := reg.Histogram("load.search.seconds", obs.FineLatencyBounds())
	var t tally
	var done atomic.Int64 // requests issued so far (against -n)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			zipf := rand.NewZipf(rng, *zipfS, *zipfV, uint64(len(pool)-1))
			client := &http.Client{Timeout: 30 * time.Second}
			var myIDs []int // ids this worker added; update/delete targets
			for {
				if *n > 0 && done.Add(1) > int64(*n) {
					return
				}
				op := pickOp(rng, weights)
				if (op == "update" || op == "delete") && len(myIDs) == 0 {
					op = "search" // nothing of ours to mutate yet
				}
				traj := pool[zipf.Uint64()]
				var stop bool
				switch op {
				case "search":
					stop = doSearch(client, base, traj, *k, *timeoutMS, &t, lat)
				case "add":
					stop = doAdd(client, base, traj, *timeoutMS, &t, &myIDs)
				case "update":
					id := myIDs[rng.Intn(len(myIDs))]
					stop = doMutate(client, base+"/update", serve.MutateRequest{ID: id, Traj: serve.FromTrajectory(traj), TimeoutMS: *timeoutMS}, &t, nil)
				case "delete":
					i := rng.Intn(len(myIDs))
					id := myIDs[i]
					myIDs = append(myIDs[:i], myIDs[i+1:]...)
					stop = doMutate(client, base+"/delete", serve.MutateRequest{ID: id, TimeoutMS: *timeoutMS}, &t, nil)
				}
				if stop {
					return // the daemon stopped accepting: this run is over
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := lat.Snapshot()
	p50, p99, p999 := snap.Quantile(0.50), snap.Quantile(0.99), snap.Quantile(0.999)
	issued := t.ok.Load() + t.partial.Load() + t.shed.Load() + t.timeouts.Load() +
		t.clientErr.Load() + t.refused.Load() + t.dropped.Load()

	if *jsonOut {
		b, err := json.MarshalIndent(map[string]any{
			"issued": issued, "ok": t.ok.Load(), "partial": t.partial.Load(),
			"shed": t.shed.Load(), "timeouts": t.timeouts.Load(),
			"client_errors": t.clientErr.Load(), "refused": t.refused.Load(),
			"dropped": t.dropped.Load(), "max_batched": t.maxBatched.Load(),
			"elapsed_seconds": elapsed.Seconds(),
			"p50_seconds":     serve.Quantile(snap, 0.50),
			"p99_seconds":     serve.Quantile(snap, 0.99),
			"p999_seconds":    serve.Quantile(snap, 0.999),
		}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		fmt.Printf("%d requests in %v (%.0f req/s): %d ok, %d partial, %d shed, %d timeout, %d client-error, %d refused, %d dropped\n",
			issued, elapsed.Round(time.Millisecond), float64(issued)/elapsed.Seconds(),
			t.ok.Load(), t.partial.Load(), t.shed.Load(), t.timeouts.Load(),
			t.clientErr.Load(), t.refused.Load(), t.dropped.Load())
		fmt.Printf("search latency p50 %.3fms p99 %.3fms p999 %.3fms; max coalesced batch %d\n",
			p50*1e3, p99*1e3, p999*1e3, t.maxBatched.Load())
	}
	if *benchOut != "" {
		if err := writeBenchLines(*benchOut, snap.Count, p50, p99, p999); err != nil {
			return err
		}
	}

	if t.dropped.Load() > 0 {
		return fmt.Errorf("%d accepted requests were dropped mid-flight (graceful drain violated)", t.dropped.Load())
	}
	if t.ok.Load()+t.partial.Load() == 0 {
		return fmt.Errorf("no request succeeded (is the daemon up at %s?)", base)
	}
	if *maxP99 > 0 && p99 > maxP99.Seconds() {
		return fmt.Errorf("search p99 %.3fms exceeds -max-p99 %v", p99*1e3, *maxP99)
	}
	return nil
}

// parseMix parses "search=0.9,add=0.1" into op weights.
func parseMix(s string) (map[string]float64, error) {
	w := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		op, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not op=weight", part)
		}
		switch op {
		case "search", "add", "update", "delete":
		default:
			return nil, fmt.Errorf("unknown op %q in -mix", op)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad weight %q for op %q", val, op)
		}
		w[op] += f
	}
	total := 0.0
	for _, f := range w {
		total += f
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix %q has no positive weight", s)
	}
	return w, nil
}

// pickOp draws one operation from the weight table.
func pickOp(rng *rand.Rand, w map[string]float64) string {
	total := 0.0
	for _, f := range w {
		total += f
	}
	x := rng.Float64() * total
	// Fixed iteration order so the draw is reproducible per seed.
	for _, op := range []string{"search", "add", "update", "delete"} {
		x -= w[op]
		if x < 0 && w[op] > 0 {
			return op
		}
	}
	return "search"
}

// post issues one POST, classifying transport errors into the tally.
// The returned response is nil when the request did not complete; stop
// is true when the daemon is no longer accepting connections.
func post(client *http.Client, url string, body any, t *tally) (resp *http.Response, stop bool) {
	b, err := json.Marshal(body)
	if err != nil {
		t.clientErr.Add(1)
		return nil, false
	}
	resp, err = client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		if errors.Is(err, syscall.ECONNREFUSED) {
			// Never accepted: the listener is closed (post-drain). Expected
			// end of a -n 0 run, not a correctness violation.
			t.refused.Add(1)
			return nil, true
		}
		// Accepted (or mid-handshake) and then the connection died: the
		// daemon lost a request it had taken. This is what graceful drain
		// must prevent.
		t.dropped.Add(1)
		return nil, false
	}
	return resp, false
}

func doSearch(client *http.Client, base string, traj traj2hash.Trajectory, k, timeoutMS int, t *tally, lat *obs.Histogram) bool {
	req := serve.SearchRequest{Traj: serve.FromTrajectory(traj), K: k, TimeoutMS: timeoutMS}
	start := time.Now()
	resp, stop := post(client, base+"/search", req, t)
	if resp == nil {
		return stop
	}
	defer resp.Body.Close()
	var sr serve.SearchResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&sr)
	switch {
	case resp.StatusCode == http.StatusOK && decodeErr == nil:
		lat.Observe(time.Since(start).Seconds())
		if sr.Complete {
			t.ok.Add(1)
		} else {
			t.partial.Add(1)
		}
		for { // CAS max
			cur := t.maxBatched.Load()
			if int64(sr.Batched) <= cur || t.maxBatched.CompareAndSwap(cur, int64(sr.Batched)) {
				break
			}
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		t.shed.Add(1)
	case resp.StatusCode == http.StatusGatewayTimeout:
		t.timeouts.Add(1)
	default:
		t.clientErr.Add(1)
	}
	return false
}

func doAdd(client *http.Client, base string, traj traj2hash.Trajectory, timeoutMS int, t *tally, ids *[]int) bool {
	req := serve.MutateRequest{Traj: serve.FromTrajectory(traj), TimeoutMS: timeoutMS}
	return doMutate(client, base+"/add", req, t, ids)
}

// doMutate issues one mutation; when ids is non-nil a successful add's
// id is appended to it.
func doMutate(client *http.Client, url string, req serve.MutateRequest, t *tally, ids *[]int) bool {
	resp, stop := post(client, url, req, t)
	if resp == nil {
		return stop
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		t.ok.Add(1)
		if ids != nil {
			var mr serve.MutateResponse
			if err := json.NewDecoder(resp.Body).Decode(&mr); err == nil {
				*ids = append(*ids, mr.ID)
			}
		}
	case http.StatusServiceUnavailable:
		t.shed.Add(1)
	case http.StatusGatewayTimeout:
		t.timeouts.Add(1)
	case http.StatusNotFound, http.StatusGone:
		// A racing delete (or server restart) is a legal outcome for a
		// mutation mix, not a load-generator failure.
		t.ok.Add(1)
	default:
		t.clientErr.Add(1)
	}
	//lint:ignore errcheck draining the body just recycles the connection; the status was already read
	io.Copy(io.Discard, resp.Body)
	return false
}

// writeBenchLines appends Go-testing-style benchmark lines so
// cmd/benchjson can publish the quantiles as a BENCH artifact.
func writeBenchLines(path string, count int64, p50, p99, p999 float64) error {
	if count == 0 {
		return fmt.Errorf("-bench-out: no search latencies recorded")
	}
	var sb strings.Builder
	for _, q := range []struct {
		name string
		sec  float64
	}{{"P50", p50}, {"P99", p99}, {"P999", p999}} {
		fmt.Fprintf(&sb, "BenchmarkServingSearch%s %d %.0f ns/op\n", q.name, count, q.sec*1e9)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(sb.String()); err != nil {
		//lint:ignore errcheck the write error is already being returned; close is best-effort
		f.Close()
		return err
	}
	return f.Close()
}
