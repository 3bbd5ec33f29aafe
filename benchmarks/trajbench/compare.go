package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the runner reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// metricsTable is benchmarks/METRICS.json: every end-to-end metric of an
// untraced run with the workloads it applies to and the bound -compare
// holds it to. BENCHMARK.json can list only metrics that every workload
// prints (benchmarks/README.md quotes the rule); this table also has the
// ones ISSUE 11 defined for some workloads only.
type metricsTable struct {
	EndToEnd []tableMetric `json:"end_to_end"`
}

// tableMetric adds to a metric how its bound is read — "relative" (a share
// of A's median), "absolute" (in the metric's unit) or "exact" (a count
// that repeats for a seed: runs are paired by seed, and bound is the share
// by which any pair may worsen) — and where it applies.
type tableMetric struct {
	specMetric
	Kind      string   `json:"kind"`
	Workloads []string `json:"workloads"`
}

func (m tableMetric) appliesTo(workload string) bool {
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

func loadJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadResults(path string) ([]*result, error) {
	var rs []*result
	return rs, loadJSON(path, &rs)
}

// appendResults adds rs to the JSON array in path, creating it if needed.
func appendResults(path string, rs []*result) error {
	all, err := loadResults(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(all, rs...), "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// observation is one untraced run's value of one metric.
type observation struct {
	seed  int64
	value float64
}

func values(obs []observation) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = o.value
	}
	return out
}

// endToEndValues collects, per workload and metric, what the untraced
// runs in rs reported, contract metrics and extras alike.
func endToEndValues(rs []*result) map[string]map[string][]observation {
	out := map[string]map[string][]observation{}
	for _, r := range rs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]observation{}
		}
		for _, set := range []map[string]metric{r.Metrics, r.Extras} {
			for name, m := range set {
				out[r.Workload][name] = append(out[r.Workload][name], observation{r.Seed, m.Value})
			}
		}
	}
	return out
}

// worsening is how much worse b is than a as a share of a, given the
// metric's direction; 0 when both are 0, infinite when only a is.
func worsening(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	if math.Abs(a) < 1e-300 { // no base to take a share of
		switch {
		case d > 0:
			return math.Inf(1)
		case d < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return d / math.Abs(a)
}

// judge compares the two sides of one metric on one workload and returns
// the row's numbers and its verdict.
func judge(m tableMetric, a, b []observation) (row string, regressed, unresolved bool) {
	switch m.Kind {
	case "exact":
		bySeed := map[int64]float64{}
		for _, o := range a {
			bySeed[o.seed] = o.value
		}
		pairs, worst := 0, math.Inf(-1)
		for _, o := range b {
			if av, ok := bySeed[o.seed]; ok {
				pairs++
				worst = math.Max(worst, worsening(av, o.value, m.Better))
			}
		}
		switch {
		case pairs == 0:
			return "no seed in common", false, true
		case worst > m.Bound:
			return fmt.Sprintf("%d pairs by seed, worst %+.2f%%, bound %.0f%%  REGRESSION", pairs, 100*worst, 100*m.Bound), true, false
		}
		return fmt.Sprintf("%d pairs by seed, worst %+.2f%%, bound %.0f%%  ok", pairs, 100*worst, 100*m.Bound), false, false
	case "absolute":
		va, vb := values(a), values(b)
		worse := median(vb) - median(va)
		if m.Better == "higher" {
			worse = -worse
		}
		row = fmt.Sprintf("%12.6g %12.6g %+8.4g %8.4g %8.4g %7.4g  ", median(va), median(vb), worse, quartileRange(va), quartileRange(vb), m.Bound)
		switch {
		case len(va) < 2 || len(vb) < 2:
			return row + "unresolved (one run: no spread)", false, true
		case math.Max(quartileRange(va), quartileRange(vb)) > m.Bound:
			return row + "unresolved (spread > bound)", false, true
		case worse > m.Bound:
			return row + "REGRESSION", true, false
		}
		return row + "ok", false, false
	}
	va, vb := values(a), values(b)
	worse := worsening(median(va), median(vb), m.Better)
	sa, sb := quartileSpread(va), quartileSpread(vb)
	row = fmt.Sprintf("%12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  ", median(va), median(vb), 100*worse, 100*sa, 100*sb, 100*m.Bound)
	switch {
	case math.IsNaN(sa) || math.IsNaN(sb):
		return row + "unresolved (one run: no spread)", false, true
	case math.Max(sa, sb) > m.Bound:
		return row + "unresolved (spread > bound)", false, true
	case worse > m.Bound:
		return row + "REGRESSION", true, false
	}
	return row + "ok", false, false
}

// compareFiles prints one row per workload × end-to-end metric that
// applies to it: both medians, how much worse B is than A, both run-to-run
// spreads (interquartile range over median) and the verdict under the
// metric's bound. A pair whose spread on either side exceeds the bound is
// unresolved, not unchanged: the runs cannot tell a change of that size
// from noise. It returns 1 when any row regressed.
func compareFiles(stdout, stderr io.Writer, tablePath, aPath, bPath string) int {
	var table metricsTable
	if err := loadJSON(tablePath, &table); err != nil {
		fmt.Fprintln(stderr, "reading the metric table:", err)
		return 2
	}
	var sides [2]map[string]map[string][]observation
	for i, p := range []string{aPath, bPath} {
		rs, err := loadResults(p)
		if err != nil {
			fmt.Fprintln(stderr, "reading results:", err)
			return 2
		}
		sides[i] = endToEndValues(rs)
	}
	names := make([]string, 0, len(sides[0]))
	for w := range sides[0] {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-16s %-24s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound", "verdict")
	var regressed, unresolved int
	for _, w := range names {
		for _, m := range table.EndToEnd {
			if !m.appliesTo(w) {
				continue
			}
			a, b := sides[0][w][m.Name], sides[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stdout, "%-16s %-24s missing on one side\n", w, m.Name)
				unresolved++
				continue
			}
			row, reg, unres := judge(m, a, b)
			if reg {
				regressed++
			}
			if unres {
				unresolved++
			}
			fmt.Fprintf(stdout, "%-16s %-24s %s\n", w, m.Name, row)
		}
	}
	fmt.Fprintf(stdout, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
