package traj2hash

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// do answers q with no deadline and requires a complete answer: the
// shorthand of the tests that care about results, not degradation.
func do(t testing.TB, ix *Index, q Query) []Result {
	t.Helper()
	rs, st := ix.Do(context.Background(), q)
	if !st.Complete {
		t.Fatalf("Do(space %d, k %d): %+v", q.Space, q.K, st)
	}
	return rs
}

// within is do's radius-lookup counterpart.
func within(t testing.TB, ix *Index, q Trajectory, radius int) []int {
	t.Helper()
	ids, st := ix.WithinCtx(context.Background(), q, radius)
	if !st.Complete {
		t.Fatalf("WithinCtx(radius %d): %+v", radius, st)
	}
	return ids
}

// facadeModel trains one tiny model shared by the API tests.
func facadeFixture(t *testing.T) (*Model, *Dataset) {
	t.Helper()
	ds := BuildDataset(Porto(), SplitSpec{
		Seed: 20, Validation: 12, Corpus: 60, Queries: 4, Database: 50,
	}, 5)
	cfg := DefaultConfig(16)
	cfg.Heads = 2
	cfg.Blocks = 1
	cfg.MaxLen = 12
	cfg.M = 4
	cfg.Epochs = 3
	cfg.BatchSize = 8
	cfg.GridCellSize = 200
	cfg.GridPreEpochs = 1
	m, err := New(cfg, ds.All())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(TrainData{
		Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus, F: Frechet,
	}); err != nil {
		t.Fatal(err)
	}
	return m, ds
}

func TestPublicAPIDistanceFunctions(t *testing.T) {
	a := Trajectory{{X: 0, Y: 0}, {X: 1, Y: 0}}
	b := Trajectory{{X: 0, Y: 1}, {X: 1, Y: 1}}
	for _, f := range []DistanceFunc{DTW, Frechet, Hausdorff, ERP, EDR} {
		d := Distance(f, a, b)
		if math.IsNaN(d) || d < 0 {
			t.Errorf("%v = %v", f, d)
		}
	}
	if got := Distance(Frechet, a, b); got != 1 {
		t.Errorf("Frechet = %v", got)
	}
	m := DistanceMatrix(DTW, []Trajectory{a, b})
	if m[0][1] != m[1][0] || m[0][0] != 0 {
		t.Error("matrix not symmetric/zero-diagonal")
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	m, ds := facadeFixture(t)
	// Model save/load through the façade.
	path := t.TempDir() + "/m.enc"
	if err := SaveEncoderFile(path, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadEncoderFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.Embed(ds.Queries[0])
	e2 := m2.Embed(ds.Queries[0])
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("façade round trip changed embeddings")
		}
	}
	// Evaluation through the façade.
	truth := GroundTruth(Frechet, ds.Queries, ds.Database, 10)
	if len(truth) != len(ds.Queries) {
		t.Fatal("ground truth shape")
	}
	if got := Evaluate(truth, truth); got.HR10 != 1 {
		t.Errorf("self HR@10 = %v", got.HR10)
	}
}

func TestProjectLonLat(t *testing.T) {
	p := ProjectLonLat(-8.61, 41.15, 41.15) // Porto
	q := ProjectLonLat(-8.60, 41.15, 41.15)
	d := p.Dist(q)
	// 0.01 degrees of longitude at 41N is ~838 m.
	if d < 700 || d > 950 {
		t.Errorf("0.01 deg lon = %v m", d)
	}
}

func TestIndexLifecycle(t *testing.T) {
	m, ds := facadeFixture(t)
	ix, err := NewIndex(m, ds.Database)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(ds.Database) {
		t.Fatalf("Len = %d", ix.Len())
	}
	q := ds.Queries[0]
	eu := do(t, ix, Query{Traj: q, K: 5, Space: SpaceEuclidean})
	ham := do(t, ix, Query{Traj: q, K: 5, Space: SpaceHamming})
	for _, res := range [][]Result{eu, ham} {
		if len(res) != 5 {
			t.Fatalf("result len = %d", len(res))
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score < res[i-1].Score {
				t.Error("results not sorted by score")
			}
		}
	}
	// Hamming score is a true Hamming distance.
	qc := m.Code(q)
	for _, r := range ham {
		rt, ok := ix.Trajectory(r.ID)
		if !ok {
			t.Fatalf("result id %d not addressable", r.ID)
		}
		if int(r.Score) != HammingDistance(qc, m.Code(rt)) {
			t.Error("Hamming score mismatch")
		}
	}
	// ApproxDistance consistent with Euclidean search score.
	if d := ix.ApproxDistanceByVec(m.Embed(q), eu[0].ID); math.Abs(d*d-eu[0].Score) > 1e-6*(1+eu[0].Score) {
		t.Errorf("ApproxDistance² %v != score %v", d*d, eu[0].Score)
	}
	if emb, ok := ix.Embedding(0); !ok || len(emb) == 0 {
		t.Error("Embedding accessor empty")
	}
}

func TestIndexStats(t *testing.T) {
	m, ds := facadeFixture(t)
	reg := NewMetricsRegistry()
	ix, err := NewIndexWith(m, ds.Database, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries {
		if got := do(t, ix, Query{Traj: q, K: 5}); len(got) != 5 {
			t.Fatalf("search returned %d results", len(got))
		}
	}
	s := ix.Stats()
	if got := s.Counters["engine.search.total"]; got != int64(len(ds.Queries)) {
		t.Errorf("engine.search.total = %d, want %d", got, len(ds.Queries))
	}
	if got := s.Counters["search.degraded"]; got != 0 {
		t.Errorf("search.degraded = %d, want 0", got)
	}
	if h := s.Histograms["engine.merge.seconds"]; h.Count != int64(len(ds.Queries)) {
		t.Errorf("engine.merge.seconds count = %d, want %d", h.Count, len(ds.Queries))
	}

	// An uninstrumented index still answers Stats, with empty maps.
	ix2, err := NewIndexWith(m, ds.Database, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := ix2.Stats()
	if s2.Counters == nil || s2.Gauges == nil || s2.Histograms == nil {
		t.Error("uninstrumented Stats returned nil maps")
	}
	if len(s2.Counters) != 0 {
		t.Errorf("uninstrumented Stats has counters: %v", s2.Counters)
	}
}

func TestIndexIncrementalAdd(t *testing.T) {
	m, ds := facadeFixture(t)
	ix, err := NewIndex(m, ds.Database[:10])
	if err != nil {
		t.Fatal(err)
	}
	// Insert the query itself: it must become the top hit everywhere.
	q := ds.Queries[1]
	id, err := ix.AddCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if id != 10 || ix.Len() != 11 {
		t.Fatalf("id=%d len=%d", id, ix.Len())
	}
	if got := do(t, ix, Query{Traj: q, K: 1, Space: SpaceEuclidean}); got[0].ID != id || got[0].Score > 1e-9 {
		t.Errorf("Euclidean self = %+v", got[0])
	}
	if got := do(t, ix, Query{Traj: q, K: 1, Space: SpaceHamming}); got[0].ID != id || got[0].Score != 0 {
		t.Errorf("Hamming self = %+v", got[0])
	}
}

func TestIndexWithin(t *testing.T) {
	m, ds := facadeFixture(t)
	ix, err := NewIndex(m, ds.Database)
	if err != nil {
		t.Fatal(err)
	}
	// An indexed trajectory is within radius 0 of itself.
	q := ds.Database[3]
	found := false
	for _, id := range within(t, ix, q, 0) {
		if id == 3 {
			found = true
		}
	}
	if !found {
		t.Error("Within(self, 0) missing self")
	}
	// Radii are monotone.
	prev := 0
	for r := 0; r <= 2; r++ {
		n := len(within(t, ix, q, r))
		if n < prev {
			t.Errorf("Within not monotone: %d then %d", prev, n)
		}
		prev = n
	}
	if ix.Encoder().Code(q).Bits != m.Cfg.HashBits {
		t.Error("Code bits mismatch")
	}
}

// TestWithinRejectsUnsupportedRadius: the facade reports a radius outside
// 0–2 in Status.Err with no ids, as Do reports an invalid Query — not as
// a complete answer for some other radius.
func TestWithinRejectsUnsupportedRadius(t *testing.T) {
	m, ds := facadeFixture(t)
	ix, err := NewIndex(m, ds.Database)
	if err != nil {
		t.Fatal(err)
	}
	for _, radius := range []int{-1, 3, 5} {
		ids, st := ix.WithinCtx(context.Background(), ds.Database[3], radius)
		if ids != nil || st.Complete || st.Err == nil || !strings.Contains(st.Err.Error(), "0–2") {
			t.Errorf("WithinCtx(radius %d) = %v, %+v; want no ids and an error naming 0–2", radius, ids, st)
		}
	}
}

func TestEmbedAllParallelMatches(t *testing.T) {
	m, ds := facadeFixture(t)
	seq := m.EmbedAll(ds.Database[:8])
	par := m.EmbedAllParallel(ds.Database[:8], 4)
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("parallel embedding differs at %d/%d", i, j)
			}
		}
	}
}

func TestFacadeFilesAndCities(t *testing.T) {
	if ChengDu().Name != "ChengDu" || Porto().Name != "Porto" {
		t.Error("city constructors wrong")
	}
	m, ds := facadeFixture(t)
	dir := t.TempDir()
	if err := SaveEncoderFile(dir+"/m.enc", m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadEncoderFile(dir + "/m.enc")
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Embed(ds.Queries[0])) != len(m.Embed(ds.Queries[0])) {
		t.Error("file round trip dims differ")
	}
	if err := ds.Save(dir + "/ds.gob"); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadDataset(dir + "/ds.gob")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2.Database) != len(ds.Database) {
		t.Error("dataset round trip differs")
	}
}

// untrainedFixture builds a model without training — forward passes work
// from random init, which is all the engine-facade tests need and keeps
// them fast.
func untrainedFixture(t *testing.T) (*Model, *Dataset) {
	t.Helper()
	ds := BuildDataset(Porto(), SplitSpec{
		Seed: 10, Validation: 6, Corpus: 30, Queries: 6, Database: 80,
	}, 9)
	cfg := DefaultConfig(16)
	cfg.Heads = 2
	cfg.Blocks = 1
	cfg.MaxLen = 12
	cfg.M = 4
	cfg.GridCellSize = 200
	cfg.GridPreEpochs = 1
	m, err := New(cfg, ds.All())
	if err != nil {
		t.Fatal(err)
	}
	return m, ds
}

func TestIndexBatchAPIs(t *testing.T) {
	m, ds := untrainedFixture(t)
	ix, err := NewIndexWith(m, nil, Options{Shards: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatalf("empty index Len = %d", ix.Len())
	}
	ids, err := ix.AddBatchCtx(context.Background(), ds.Database)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("AddBatchCtx ids = %v", ids[:5])
		}
	}
	if ix.Len() != len(ds.Database) {
		t.Fatalf("Len = %d", ix.Len())
	}
	// SearchBatchCtx equals per-query Do, in query order.
	batch, sts := ix.SearchBatchCtx(context.Background(), ds.Queries, 5)
	if len(batch) != len(ds.Queries) {
		t.Fatalf("batch len = %d", len(batch))
	}
	for qi, q := range ds.Queries {
		if !sts[qi].Complete {
			t.Fatalf("query %d: %+v", qi, sts[qi])
		}
		single := do(t, ix, Query{Traj: q, K: 5})
		for i := range single {
			if batch[qi][i] != single[i] {
				t.Fatalf("query %d rank %d: batch %+v != single %+v", qi, i, batch[qi][i], single[i])
			}
		}
	}
	// SignCode matches Model.Code, so one forward pass serves both spaces.
	qe := m.Embed(ds.Queries[0])
	if !HammingDistanceIsZero(SignCode(qe), m.Code(ds.Queries[0])) {
		t.Error("SignCode(Embed) != Code")
	}
}

// HammingDistanceIsZero is a test helper for code equality.
func HammingDistanceIsZero(a, b Code) bool { return HammingDistance(a, b) == 0 }

// TestIndexConcurrentAddSearch exercises the public facade under
// concurrent Add and Search on a sharded engine (run with -race).
func TestIndexConcurrentAddSearch(t *testing.T) {
	m, ds := untrainedFixture(t)
	ix, err := NewIndexWith(m, ds.Database[:20], Options{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rest := ds.Database[20:]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, tr := range rest {
			if _, err := ix.AddCtx(context.Background(), tr); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			q := ds.Queries[i%len(ds.Queries)]
			if res, _ := ix.SearchCtx(context.Background(), q, 5); len(res) != 5 {
				t.Errorf("search returned %d results", len(res))
				return
			}
			ix.Do(context.Background(), Query{Traj: q, K: 3, Space: SpaceEuclidean})
			ix.WithinCtx(context.Background(), q, 1)
		}
	}()
	wg.Wait()
	if ix.Len() != len(ds.Database) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(ds.Database))
	}
	// Every id is addressable after the dust settles.
	for id := 0; id < ix.Len(); id++ {
		rt, tok := ix.Trajectory(id)
		emb, eok := ix.Embedding(id)
		if !tok || !eok || len(rt) == 0 || len(emb) == 0 {
			t.Fatalf("id %d unaddressable", id)
		}
	}
}

func TestIndexErrors(t *testing.T) {
	m, ds := facadeFixture(t)
	if _, err := NewIndex(nil, ds.Database); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewIndex(m, nil); err == nil {
		t.Error("empty database accepted")
	}
}

// TestNewRejectsHostileConfig pins that the public constructor turns the
// head and block counts Validate once let through into errors, not a
// divide-by-zero or a negative make.
func TestNewRejectsHostileConfig(t *testing.T) {
	space := Porto().Generate(5, 1)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero heads", func(c *Config) { c.Heads = 0 }},
		{"negative heads", func(c *Config) { c.Heads = -4 }},
		{"negative blocks", func(c *Config) { c.Blocks = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(16)
			tc.mutate(&cfg)
			if _, err := New(cfg, space); err == nil {
				t.Error("New returned no error")
			}
		})
	}
}
