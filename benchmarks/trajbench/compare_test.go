package main

import (
	"strings"
	"testing"
)

func obs(vs ...float64) []observation {
	out := make([]observation, len(vs))
	for i, v := range vs {
		out[i] = observation{seed: int64(i + 1), value: v}
	}
	return out
}

// TestJudge holds -compare to its three rules: a spread above the bound
// on either side is unresolved for every metric (setup_s included), a
// median worse by more than the bound is a regression, and a count is
// compared seed by seed.
func TestJudge(t *testing.T) {
	rel := func(name string, bound float64) tableMetric {
		return tableMetric{specMetric: specMetric{Name: name, Unit: "s", Better: "lower", Bound: bound}, Kind: "relative"}
	}
	steady := obs(1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00)
	noisy := obs(1.0, 1.4, 0.8, 1.5, 0.7, 1.0, 1.3, 0.9, 1.0, 1.6)
	slower := obs(1.30, 1.31, 1.29, 1.32, 1.28, 1.30, 1.31, 1.29, 1.30, 1.30)
	hr := tableMetric{specMetric: specMetric{Name: "hr10", Unit: "ratio", Better: "higher"}, Kind: "exact"}
	failed := tableMetric{specMetric: specMetric{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0.001}, Kind: "absolute"}
	for _, c := range []struct {
		name string
		m    tableMetric
		a, b []observation
		want string
	}{
		{"steady pair", rel("setup_s", 0.25), steady, steady, "ok"},
		{"noisy set-up is not excused", rel("setup_s", 0.25), steady, noisy, "unresolved (spread > bound)"},
		{"regression", rel("search_p50_ms", 0.10), steady, slower, "REGRESSION"},
		{"one run has no spread", rel("search_p50_ms", 0.10), steady, obs(1), "unresolved (one run"},
		{"count repeats", hr, obs(0.5, 0.6), obs(0.5, 0.6), "ok"},
		{"count fell for one seed", hr, obs(0.5, 0.6), obs(0.5, 0.59), "REGRESSION"},
		{"count rose", hr, obs(0.5, 0.6), obs(0.5, 0.61), "ok"},
		{"no seed in common", hr, obs(0.5), []observation{{seed: 9, value: 0.5}}, "no seed in common"},
		{"no failures", failed, obs(0, 0, 0), obs(0, 0, 0), "ok"},
		{"failures appeared", failed, obs(0, 0, 0), obs(0.01, 0.01, 0.01), "REGRESSION"},
	} {
		row, reg, unres := judge(c.m, c.a, c.b)
		if !strings.Contains(row, c.want) {
			t.Errorf("%s: verdict %q, want it to say %q", c.name, row, c.want)
		}
		if reg != strings.Contains(c.want, "REGRESSION") || unres != (strings.Contains(c.want, "unresolved") || strings.Contains(c.want, "no seed")) {
			t.Errorf("%s: regressed=%v unresolved=%v do not match %q", c.name, reg, unres, c.want)
		}
	}
}
