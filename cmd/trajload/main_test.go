package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traj2hash/internal/data"
	"traj2hash/internal/serve"
)

func TestParseMix(t *testing.T) {
	w, err := parseMix("search=0.9,add=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if w["search"] != 0.9 || w["add"] != 0.1 {
		t.Fatalf("weights %v, want search=0.9 add=0.1", w)
	}
	for _, bad := range []string{"", "search", "fly=1", "search=-1", "search=0,add=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted invalid input", bad)
		}
	}
}

func TestPickOpFollowsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := map[string]float64{"search": 0.5, "add": 0.5}
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[pickOp(rng, w)]++
	}
	if counts["search"] < 800 || counts["add"] < 800 {
		t.Fatalf("2000 draws at 50/50 gave %v; want both ops near 1000", counts)
	}
	if counts["update"]+counts["delete"] != 0 {
		t.Fatalf("zero-weight ops drawn: %v", counts)
	}
	// A single-op mix always yields that op.
	for i := 0; i < 100; i++ {
		if op := pickOp(rng, map[string]float64{"delete": 1}); op != "delete" {
			t.Fatalf("single-op mix drew %q", op)
		}
	}
}

func TestWriteBenchLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := writeBenchLines(path, 0, 1, 2, 3); err == nil {
		t.Fatal("writeBenchLines accepted an empty histogram")
	}
	if err := writeBenchLines(path, 42, 0.001, 0.002, 0.004); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	for _, want := range []string{
		"BenchmarkServingSearchP50 42 1000000 ns/op",
		"BenchmarkServingSearchP99 42 2000000 ns/op",
		"BenchmarkServingSearchP999 42 4000000 ns/op",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("bench file missing %q:\n%s", want, got)
		}
	}
}

// TestJSONSummaryWithoutSearches: a search-free mix records no search
// latency, so the -json summary reports its quantiles as null — and the
// run succeeds.
func TestJSONSummaryWithoutSearches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.gob")
	ds := data.Build(data.Porto(), data.SplitSpec{Queries: 3, Database: 3}, 1)
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := json.NewEncoder(w).Encode(serve.MutateResponse{ID: 1, Len: 1}); err != nil {
			t.Error(err)
		}
	}))
	defer daemon.Close()

	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run([]string{"-addr", strings.TrimPrefix(daemon.URL, "http://"), "-data", path,
		"-n", "4", "-c", "1", "-mix", "add=1", "-json"})
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("trajload -mix add=1 -json: %v", err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var sum map[string]any
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, b)
	}
	if sum["ok"] != 4.0 {
		t.Errorf("summary ok = %v, want 4", sum["ok"])
	}
	for _, q := range []string{"p50_seconds", "p99_seconds", "p999_seconds"} {
		if v, ok := sum[q]; !ok || v != nil {
			t.Errorf("summary %s = %v (present %v), want null", q, v, ok)
		}
	}
}
