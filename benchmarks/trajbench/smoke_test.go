package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const (
	specPath  = "../../BENCHMARK.json"
	tablePath = "../METRICS.json"
)

func loadSpec(t *testing.T) (*benchSpec, *metricsTable) {
	t.Helper()
	var spec benchSpec
	if err := loadJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	var table metricsTable
	if err := loadJSON(tablePath, &table); err != nil {
		t.Fatal(err)
	}
	return &spec, &table
}

// checkAgainstTable asserts that an untraced run reported every metric
// METRICS.json lists for its workload, once, finite, in the listed unit,
// and none that the table lists for other workloads only.
func checkAgainstTable(t *testing.T, res *result, table *metricsTable) {
	t.Helper()
	for _, m := range table.EndToEnd {
		got, inMetrics := res.Metrics[m.Name]
		extra, inExtras := res.Extras[m.Name]
		if !m.appliesTo(res.Workload) {
			if inMetrics || inExtras {
				t.Errorf("%s: reports %s, which METRICS.json does not list for it", res.Workload, m.Name)
			}
			continue
		}
		if inMetrics == inExtras {
			t.Errorf("%s: %s must be reported exactly once (contract metric: %v, extra: %v)", res.Workload, m.Name, inMetrics, inExtras)
			continue
		}
		if inExtras {
			got = extra
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, METRICS.json says %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", res.Workload, m.Name, got.Value)
		}
	}
	if v := res.Extras["failed_share"].Value; v != 0 {
		t.Errorf("%s: failed_share = %v, want 0", res.Workload, v)
	}
}

func smokeEnv(t *testing.T, seed int64) env {
	t.Helper()
	return env{sc: scales["smoke"], seed: seed, seconds: 0.6, workers: loadWorkers(), dir: t.TempDir(), log: io.Discard}
}

// checkAgainstSpec asserts that a run emitted exactly the metrics the
// contract lists, each once, finite, and in the listed unit.
func checkAgainstSpec(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	if !res.Correct {
		t.Errorf("%s: run is not correct: %v", res.Workload, res.Problems)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", res.Workload, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: emitted %d metrics, the contract lists %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("%s: metric %s is in BENCHMARK.json but was not emitted", res.Workload, w.Name)
			continue
		}
		if got.Unit != w.Unit {
			t.Errorf("%s: %s has unit %q, the contract says %q", res.Workload, w.Name, got.Unit, w.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", res.Workload, w.Name, got.Value)
		}
	}
	seen := map[string]int{}
	for _, n := range res.order {
		seen[n]++
		if seen[n] > 1 {
			t.Errorf("%s: %s emitted more than once", res.Workload, n)
		}
	}
	// The result line must round-trip with exactly the contract's keys.
	line, err := res.line()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v", keys)
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at smoke
// scale and holds what they print to the root BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, table := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := map[string]bool{}
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", m.Name)
		}
		if names[m.Name] {
			t.Errorf("metric name %q is listed twice", m.Name)
		}
		names[m.Name] = true
	}
	// The table repeats the contract's end-to-end metrics, bound for bound,
	// and adds the issue's; every workload it names exists.
	inTable := map[string]tableMetric{}
	for _, m := range table.EndToEnd {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", m.Name)
		}
		if _, dup := inTable[m.Name]; dup {
			t.Errorf("METRICS.json lists %q twice", m.Name)
		}
		inTable[m.Name] = m
		for _, w := range m.Workloads {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("METRICS.json: %s names the unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if got := inTable[m.Name]; got.specMetric != m || len(got.Workloads) != len(workloads) {
			t.Errorf("METRICS.json has %+v for the contract metric %+v", got, m)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: contract says %q (%q), runner says %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	ctx := context.Background()
	e := smokeEnv(t, 1)
	other := smokeEnv(t, 2)
	traceDir := t.TempDir()
	diskRatios := map[float64]bool{}
	repeats := map[string]string{"query_attention": "hr10", "write_path": "disk_bytes_per_user_byte"}
	for _, w := range workloads {
		untraced, err := run(ctx, e, w, false, traceDir)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		checkAgainstSpec(t, untraced, spec.EndToEnd)
		checkAgainstTable(t, untraced, table)

		traced, err := run(ctx, e, w, true, traceDir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkAgainstSpec(t, traced, spec.PerLayer)
		diskRatios[traced.Metrics["wal.disk_bytes_per_user_byte"].Value] = true
		var sum float64
		for _, l := range shareLayers {
			sum += traced.Metrics["share."+l].Value
		}
		if sum += traced.Metrics["share.unattributed"].Value; math.Abs(sum-1) > 1e-6 {
			t.Errorf("%s: layer shares sum to %v, want 1", w.name, sum)
		}
		if spans, err := filepath.Glob(filepath.Join(traceDir, "trace_"+w.name+".json")); err != nil || len(spans) != 1 {
			t.Errorf("%s: no trace file written", w.name)
		}

		// A different seed must generate different inputs.
		fx, err := w.setup(ctx, other, nil, filepath.Join(other.dir, w.name))
		if err != nil {
			t.Fatalf("%s set-up with another seed: %v", w.name, err)
		}
		if fx.checksum() == untraced.Checksum {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs (checksum %s)", w.name, untraced.Checksum)
		}
		if err := fx.close(); err != nil {
			t.Error(err)
		}

		// The counts that must repeat exactly across two runs of the same
		// seed: hr10 (fixed training, fixed queries) and bytes on disk per
		// byte of user data (sized after a fixed number of mutations).
		if name, ok := repeats[w.name]; ok {
			again, err := run(ctx, e, w, false, traceDir)
			if err != nil {
				t.Fatal(err)
			}
			a, b := untraced.Extras[name], again.Extras[name]
			if math.Float64bits(a.Value) != math.Float64bits(b.Value) || a.Unit != "ratio" || a.Value <= 0 {
				t.Errorf("%s did not repeat: %v then %v", name, a, b)
			}
			if again.Checksum != untraced.Checksum {
				t.Errorf("the same seed generated different inputs: %s then %s", untraced.Checksum, again.Checksum)
			}
		}
	}
	// … and the same ratio over the suite's fixed sequence of durable adds,
	// which every traced run repeats.
	if len(diskRatios) != 1 {
		t.Errorf("wal.disk_bytes_per_user_byte did not repeat exactly across traced runs: %v", diskRatios)
	}
}

// TestCommandLine drives the flag surface the driver uses, end to end.
func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "a.json")
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "scan_100k", "--seed", "7", "--seconds", "0.3", "--trace", "0", "--scale", "smoke", "--dir", dir, "--out", out}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Attempted < 1 || last.Metrics["setup_s"].Unit != "s" {
		t.Errorf("unexpected result line: %+v", last)
	}
	if !strings.Contains(stdout.String(), "op_p50_ms") || !strings.Contains(stdout.String(), "search_euclid_qps") || !strings.Contains(stdout.String(), " ms") {
		t.Errorf("the report does not print metrics by name with units:\n%s", stdout.String())
	}
	// A second set of runs, then -compare over the two files.
	args[len(args)-1] = filepath.Join(dir, "b.json")
	for i := 0; i < 2; i++ {
		stdout.Reset()
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr.String())
		}
	}
	stdout.Reset()
	code := realMain([]string{"-compare", "-table", tablePath, out, args[len(args)-1]}, &stdout, &stderr)
	if code != 0 && code != 1 {
		t.Fatalf("-compare exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "search_euclid_p50_ms") || !strings.Contains(stdout.String(), "unresolved") {
		t.Errorf("-compare must print a row per workload × metric and mark a one-run side unresolved:\n%s", stdout.String())
	}
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}
