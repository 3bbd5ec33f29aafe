// Command trajbench is the repository's reference benchmark: four
// workloads that each stress a different layer of traj2hash, end-to-end
// metrics taken with tracing off, and — in a separate traced run —
// per-layer numbers measured from outside, by timing calls into each
// layer's public functions. benchmarks/README.md says what every metric
// means and which layer should move it; BENCHMARK.json at the repository
// root is the contract the names, units and bounds are checked against.
//
//	go run ./benchmarks/trajbench --workload scan_100k --seed 1 --seconds 30 --trace 0
//	go run ./benchmarks/trajbench --workload all --seed 1 --trace 1 --out bin/results.json
//	go run ./benchmarks/trajbench -compare bin/A.json bin/B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the process exits non-zero when
// any correctness check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"traj2hash"
)

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Scale     string            `json:"scale"`
	Checksum  string            `json:"input_checksum"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extras    map[string]metric `json:"extras"`
	Problems  []string          `json:"problems,omitempty"`

	order, extraOrder []string
}

// line is the contract's result line.
func (r *result) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

func (r *result) print(w io.Writer) {
	mode := "untraced: end-to-end metrics"
	if r.Trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  scale=%s  (%s)\n", r.Workload, r.Seed, r.Seconds, r.Scale, mode)
	fmt.Fprintf(w, "input checksum %s\n", r.Checksum)
	for _, n := range r.order {
		fmt.Fprintln(w, fmtMetric(n, r.Metrics[n]))
	}
	if len(r.extraOrder) > 0 {
		fmt.Fprintln(w, "-- this workload also reports")
		for _, n := range r.extraOrder {
			fmt.Fprintln(w, fmtMetric(n, r.Extras[n]))
		}
	}
	fmt.Fprintf(w, "attempted %d  failed %d\n", r.Attempted, r.Failed)
	for i, p := range r.Problems {
		if i == 10 {
			fmt.Fprintf(w, "PROBLEM … and %d more\n", len(r.Problems)-i)
			break
		}
		fmt.Fprintln(w, "PROBLEM", p)
	}
}

// finish closes the run's books: every problem a check found is a failed
// operation, and an untraced run reports failed_share next to its numbers.
func (r *result) finish(metrics, extras *metricSet, problems []string) {
	for _, d := range append(metrics.dup, extras.dup...) {
		problems = append(problems, "metric reported twice: "+d)
	}
	r.Problems = problems
	r.Failed += len(problems)
	r.Correct = r.Failed == 0
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	if !r.Trace {
		extras.set("failed_share", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
	r.Metrics, r.order = metrics.m, metrics.names
	r.Extras, r.extraOrder = extras.m, extras.names
}

// runUntraced sets the workload up once, timed whole, runs its measured
// part with nothing instrumented, checks the answers, and reports the
// end-to-end metrics: the contract's four in metrics, and under extras the
// workload's numbers by the names ISSUE 11 gave them (METRICS.json).
func runUntraced(ctx context.Context, e env, w workloadDef) (*result, error) {
	res := &result{Workload: w.name, Seed: e.seed, Seconds: e.seconds, Scale: e.sc.name}
	metrics, extras := newMetricSet(), newMetricSet()
	t0 := time.Now()
	fx, err := w.setup(ctx, e, nil, filepath.Join(e.dir, "index"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	metrics.set("setup_s", time.Since(t0).Seconds(), "s")
	res.Checksum = fx.checksum()

	// The measured part is e.window() long; a workload with a second phase
	// splits it evenly.
	dur := e.window()
	two, hasSecond := fx.(secondPhase)
	if hasSecond {
		dur /= 2
	}
	warm := warmup(dur)
	samples := fx.window(ctx, dur)
	st := summarize(samples, warm, dur, fx.primary)
	all := summarize(samples, warm, dur, anyKind)
	res.Attempted, res.Failed = all.n, all.failed
	metrics.set("op_p50_ms", st.p50, "ms")
	metrics.set("op_tail_ratio", st.tailRatio, "ratio")
	fx.named(samples, warm, dur, extras)
	if hasSecond {
		n, failed := two.second(ctx, dur, warm, extras)
		res.Attempted += n
		res.Failed += failed
	}
	extras.set("op_per_s", st.perSec, "1/s")
	extras.set("op_samples", float64(st.n), "count")
	extras.set("op_tail_ms", st.tail, "ms")
	extras.set("op_tail_percentile", st.tailQ*100, "%")
	extras.set("op_max_ms", st.max, "ms")
	extras.set("op_max_at_s", st.maxAt, "s")

	metrics.set("live_heap_mb", liveHeapMB(), "MB")
	checks, problems := fx.verify(ctx, extras)
	if err := fx.close(); err != nil {
		problems = append(problems, fmt.Sprintf("close: %v", err))
	}
	extras.set("peak_rss_mb", peakRSSMB(), "MB")
	res.Attempted += checks
	res.finish(metrics, extras, problems)
	return res, nil
}

// runTraced reports the per-layer metrics: the workload's decomposed
// operation under the span recorder (each layer's share of the
// operation), the same workload with the program's own registries on
// (observability overhead and the counts they expose), and the layer
// suite.
func runTraced(ctx context.Context, e env, w workloadDef, traceDir string) (*result, error) {
	res := &result{Workload: w.name, Seed: e.seed, Seconds: e.seconds, Scale: e.sc.name, Trace: true}
	metrics, extras := newMetricSet(), newMetricSet()
	var problems []string
	total := e.window()

	fx, err := w.setup(ctx, e, nil, filepath.Join(e.dir, "plain"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.Checksum = fx.checksum()

	// 1. Spans: the decomposed operation, first with no recorder (the
	// baseline), then recorded.
	spanDur := total / 12
	base, baseFailed := tracedLoop(ctx, fx, nil, spanDur, 0)
	rec := newRecorder()
	traced, tracedFailed := tracedLoop(ctx, fx, rec, spanDur, len(base))
	sh := fx.shares(rec)
	for _, l := range shareLayers {
		metrics.set("share."+l, sh.byLayer[l], "ratio")
	}
	metrics.set("share.unattributed", sh.unattributed, "ratio")
	metrics.set("trace.op_us", sh.opMedianUS, "us")
	metrics.set("trace.overhead_share", median(traced)/median(base)-1, "ratio")
	extras.set("trace.ops", float64(sh.ops), "count")
	res.Attempted += len(base) + len(traced)
	res.Failed += baseFailed + tracedFailed
	path := filepath.Join(traceDir, "trace_"+w.name+".json")
	if err := rec.writeFile(path); err != nil {
		problems = append(problems, fmt.Sprintf("writing %s: %v", path, err))
	}

	// 2. Observability overhead: the real operation on the plain fixture
	// and on a twin built with Options.Metrics (and serve.Config.Metrics),
	// in alternating windows so both sides see the same minutes.
	reg := traj2hash.NewMetricsRegistry()
	ifx, err := w.setup(ctx, e, reg, filepath.Join(e.dir, "instrumented"))
	if err != nil {
		return nil, fmt.Errorf("instrumented set-up: %w", err)
	}
	before := reg.Snapshot()
	const rounds = 3
	obsDur := total / (12 * rounds)
	var plainSamples, instSamples []sample
	for r := 0; r < rounds; r++ {
		plainSamples = append(plainSamples, fx.window(ctx, obsDur)...)
		instSamples = append(instSamples, ifx.window(ctx, obsDur)...)
	}
	plain := summarize(plainSamples, obsDur/5, obsDur, fx.primary)
	inst := summarize(instSamples, obsDur/5, obsDur, ifx.primary)
	after := reg.Snapshot()
	if sw, ok := fx.(interface {
		sweep(context.Context, time.Duration, *metricSet)
	}); ok {
		sw.sweep(ctx, total/18, extras) // workloads with an arrival rate also report a few fixed rates
	}
	for _, f := range []fixture{fx, ifx} {
		if err := f.close(); err != nil {
			problems = append(problems, fmt.Sprintf("close: %v", err))
		}
	}
	metrics.set("obs.overhead_share", inst.p50/plain.p50-1, "ratio")
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	cand := after.Histograms["engine.search.candidates"]
	cand0 := before.Histograms["engine.search.candidates"]
	metrics.set("engine.candidates_per_query", ratio(cand.Sum-cand0.Sum, float64(cand.Count-cand0.Count)), "count")
	metrics.set("wal.fsyncs_per_mutation", ratio(delta("wal.fsyncs"), delta("wal.appends")), "count")
	metrics.set("serve.batch_size_mean", ratio(delta("serve.batch.queries"), delta("serve.batch.count")), "count")
	res.Attempted += plain.n + inst.n
	res.Failed += plain.failed + inst.failed

	// 3. The layer suite.
	checks, suiteProblems := runLayerSuite(ctx, e, total/2, metrics)
	res.Attempted += checks
	problems = append(problems, suiteProblems...)

	res.finish(metrics, extras, problems)
	return res, nil
}

// run gives the run a scratch directory of its own — a WAL directory a
// previous run left behind would be recovered, not created — and removes
// it afterwards.
func run(ctx context.Context, e env, w workloadDef, trace bool, traceDir string) (res *result, err error) {
	if e.dir, err = os.MkdirTemp(e.dir, w.name+"-"); err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	defer func() { err = removeAll(err, e.dir) }()
	if trace {
		return runTraced(ctx, e, w, traceDir)
	}
	return runUntraced(ctx, e, w)
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trajbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 30, "length of the measured part of a run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, nothing instrumented; 1: per-layer metrics from a traced run")
	scaleName := fs.String("scale", "full", "full (the reference) or smoke (toy sizes, for tests)")
	out := fs.String("out", "", "append the run's results to this JSON file")
	workDir := fs.String("dir", "bin", "directory for scratch files and trace_<workload>.json")
	compare := fs.Bool("compare", false, "compare two result files: trajbench -compare A.json B.json")
	table := fs.String("table", "benchmarks/METRICS.json", "metric table -compare takes bounds, directions and applicable workloads from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: trajbench -compare A.json B.json")
			return 2
		}
		return compareFiles(stdout, stderr, *table, fs.Arg(0), fs.Arg(1))
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "unknown scale %q\n", *scaleName)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "--seconds must be positive")
		return 2
	}
	var todo []workloadDef
	if *workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workload); ok {
		todo = []workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "scratch directory:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*workDir, "trajbench-")
	if err != nil {
		fmt.Fprintln(stderr, "scratch directory:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := env{sc: sc, seed: *seed, seconds: *seconds, workers: loadWorkers(), dir: scratch, log: stderr}

	code := 0
	var results []*result
	for _, w := range todo {
		res, err := run(ctx, e, w, *trace != 0, *workDir)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		res.print(stdout)
		if !res.Correct {
			code = 1
		}
		results = append(results, res)
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintln(stderr, "writing results:", err)
			return 1
		}
	}
	// The contract's result line: last on stdout. With --workload all it
	// is the last workload's; every workload's numbers are in --out.
	line, err := results[len(results)-1].line()
	if err != nil {
		fmt.Fprintln(stderr, "encoding result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}
