package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/engine"
	"traj2hash/internal/geo"
)

// microParams is an ultra-small setting for fast unit tests of the
// experiment plumbing (full experiments are exercised by the benchmarks).
func microParams() Params {
	return Params{
		Split: data.SplitSpec{Seed: 12, Validation: 8, Corpus: 30, Queries: 6, Database: 40},
		Dim:   8, MaxLen: 8, M: 4, Epochs: 2, Batch: 6,
		TripletB: 6, NumTrips: 30, AdEpochs: 4, Seed: 1,
	}
}

func microEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(data.Porto(), microParams())
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
	}{{"tiny", Tiny}, {"small", Small}, {"medium", Medium}, {"paper", Paper}} {
		got, err := ParseScale(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Errorf("String() = %q", got.String())
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestParamsForMonotone(t *testing.T) {
	prev := 0
	for _, s := range []Scale{Tiny, Small, Medium, Paper} {
		p := ParamsFor(s)
		total := p.Split.Total()
		if total <= prev {
			t.Errorf("scale %v total %d not larger than previous %d", s, total, prev)
		}
		prev = total
		if err := p.CoreConfig().Validate(); err != nil {
			t.Errorf("scale %v: invalid core config: %v", s, err)
		}
	}
}

func TestTablePrint(t *testing.T) {
	tbl := &Table{
		Title:  "Test",
		Header: []string{"A", "LongColumn"},
		Rows:   [][]string{{"x", "1"}, {"longer", "2"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== Test ==", "LongColumn", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	if _, err := Lookup("table1"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTrainMethodAllNames(t *testing.T) {
	env := microEnv(t)
	for _, name := range HammingMethodNames {
		tr, err := TrainMethod(name, env, dist.FrechetDist)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Name != name {
			t.Errorf("name %q != %q", tr.Name, name)
		}
		if name == "Fresh" {
			if tr.EmbedAll != nil || tr.CodeAll == nil {
				t.Errorf("Fresh: wrong capabilities")
			}
			continue
		}
		embs := tr.EmbedAll(env.Dataset.Queries[:2])
		if len(embs) != 2 || len(embs[0]) != env.Params.Dim {
			t.Errorf("%s: bad embeddings (every method embeds at the shared latent dimension %d)", name, env.Params.Dim)
		}
		if err := tr.AttachHashAdapter(env, dist.FrechetDist, 8); err != nil {
			t.Errorf("%s adapter: %v", name, err)
		}
		codes := tr.CodeAll(env.Dataset.Queries[:2])
		if len(codes) != 2 {
			t.Errorf("%s: bad codes", name)
		}
	}
	if _, err := TrainMethod("nope", env, dist.DTWDist); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestDistanceAgnostic(t *testing.T) {
	for _, name := range []string{"t2vec", "CL-TSim", "Fresh"} {
		if !DistanceAgnostic(name) {
			t.Errorf("%s should be distance-agnostic", name)
		}
	}
	for _, name := range []string{"NeuTraj", "Traj2Hash", "Transformer"} {
		if DistanceAgnostic(name) {
			t.Errorf("%s should be distance-aware", name)
		}
	}
}

func TestMetricsPipeline(t *testing.T) {
	env := microEnv(t)
	f := dist.DTWDist
	truth := env.truth(f)
	// A "perfect" method that embeds via the exact distance to fixed
	// anchors would be complex; instead verify pipeline consistency with a
	// real tiny model and check metrics are within [0, 1].
	tr, err := TrainMethod("Traj2Hash", env, f)
	if err != nil {
		t.Fatal(err)
	}
	em, err := euclideanMetrics(tr.EmbedAll, env, truth)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := hammingMetrics(tr.CodeAll, env, truth)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{em.HR10, em.HR50, em.R10At50, hm.HR10, hm.HR50, hm.R10At50} {
		if v < 0 || v > 1 {
			t.Errorf("metric out of range: %v", v)
		}
	}
	// HR@50 >= HR@10 is not guaranteed in general, but R10@50 >= HR@10
	// usually holds; just ensure the search returned full lists.
	if em.HR50 == 0 && em.HR10 > 0 {
		t.Error("inconsistent metrics")
	}
}

func TestAblationConfig(t *testing.T) {
	base := microParams().CoreConfig()
	full := ablationConfig(base, "Traj2Hash")
	if !full.UseGrids || !full.UseRevAug || !full.UseTriplets {
		t.Error("full variant altered")
	}
	g := ablationConfig(base, "-Grids")
	if g.UseGrids || !g.UseRevAug {
		t.Error("-Grids wrong")
	}
	r := ablationConfig(base, "-RevAug")
	if r.UseGrids || r.UseRevAug || !r.UseTriplets {
		t.Error("-RevAug wrong")
	}
	tr := ablationConfig(base, "-Triplets")
	if tr.UseGrids || tr.UseRevAug || tr.UseTriplets {
		t.Error("-Triplets wrong")
	}
}

func TestTimeStrategiesConsistency(t *testing.T) {
	// Build a timing env manually with random embeddings; strategies must
	// return k results and the hybrid must agree with BF on the fast path
	// (verified in package hamming); here check the experiment wiring.
	env := microEnv(t)
	tr, err := TrainMethod("Traj2Hash", env, dist.DTWDist)
	if err != nil {
		t.Fatal(err)
	}
	pair := func(ts []geo.Trajectory) []engine.Query {
		embs, codes := tr.EmbedAll(ts), tr.CodeAll(ts)
		out := make([]engine.Query, len(ts))
		for i := range ts {
			out[i] = engine.Query{Emb: embs[i], Code: codes[i]}
		}
		return out
	}
	te := &timingEnv{db: pair(env.Dataset.Database), queries: pair(env.Dataset.Queries)}
	cells, err := te.timeStrategies(len(te.db), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	names := map[string]bool{}
	for _, c := range cells {
		names[c.strategy] = true
		if c.perQuery < 0 {
			t.Error("negative timing")
		}
	}
	if !names["Euclidean-BF"] || !names["Hamming-BF"] || !names["Hamming-Hybrid"] {
		t.Errorf("strategies = %v", names)
	}
}

func TestPaperTablesComplete(t *testing.T) {
	for _, ds := range []string{"Porto", "ChengDu"} {
		t1 := PaperTable1[ds]
		if len(t1) != 7 {
			t.Errorf("PaperTable1[%s] has %d methods", ds, len(t1))
		}
		t2 := PaperTable2[ds]
		if len(t2) != 8 {
			t.Errorf("PaperTable2[%s] has %d methods", ds, len(t2))
		}
		for m, byDist := range t1 {
			for _, d := range []string{"Frechet", "Hausdorff", "DTW"} {
				pm, ok := byDist[d]
				if !ok {
					t.Errorf("PaperTable1[%s][%s] missing %s", ds, m, d)
					continue
				}
				if pm.HR10 <= 0 || pm.HR10 >= 1 {
					t.Errorf("implausible paper value %v", pm.HR10)
				}
			}
		}
		t3 := PaperTable3[ds]
		for _, d := range []string{"Frechet", "DTW"} {
			for _, sp := range []string{"Euclidean", "Hamming"} {
				if len(t3[d][sp]) != 4 {
					t.Errorf("PaperTable3[%s][%s][%s] has %d variants", ds, d, sp, len(t3[d][sp]))
				}
			}
		}
	}
	// The paper's headline Table I claim holds in the transcription:
	// Traj2Hash beats every baseline everywhere.
	for ds, byMethod := range PaperTable1 {
		best := byMethod["Traj2Hash"]
		for m, byDist := range byMethod {
			if m == "Traj2Hash" {
				continue
			}
			for d, pm := range byDist {
				if pm.HR10 >= best[d].HR10 {
					t.Errorf("paper table: %s %s %s HR@10 %v >= Traj2Hash %v",
						ds, m, d, pm.HR10, best[d].HR10)
				}
			}
		}
	}
	for id := range PaperClaims {
		if _, err := Lookup(id); err != nil {
			t.Errorf("claims reference unknown experiment %s", id)
		}
	}
}

func TestEfficiencyDBSizesLadder(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Medium, Paper} {
		sizes := efficiencyDBSizes(s)
		if len(sizes) != 5 {
			t.Fatalf("scale %v: %d sizes", s, len(sizes))
		}
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= sizes[i-1] {
				t.Errorf("scale %v: ladder not increasing", s)
			}
		}
		if sizes[4] != 5*sizes[0] {
			t.Errorf("scale %v: span %d..%d is not 1:5", s, sizes[0], sizes[4])
		}
	}
}

func TestEnvSplitsMatchSpec(t *testing.T) {
	env := microEnv(t)
	p := microParams()
	if len(env.Dataset.Seeds) != p.Split.Seed ||
		len(env.Dataset.Database) != p.Split.Database {
		t.Error("env splits do not match spec")
	}
	var _ []geo.Trajectory = env.Dataset.Queries
}

// TestResolveEncoder covers the serving commands' shared flag resolution:
// no kind loads whatever the model file holds, a training-free kind is
// built from the dataset with no model file at all, and a trainable kind
// must match the file.
func TestResolveEncoder(t *testing.T) {
	env := microEnv(t)
	ds := env.Dataset
	m, err := core.New(microParams().CoreConfig(), ds.All())
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(t.TempDir(), "model.gob")
	if err := core.SaveEncoderFile(model, m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ kind, path, want string }{
		{"", model, core.AttentionKind},
		{core.AttentionKind, model, core.AttentionKind},
		{core.GeoPTHKind, "no-such-file", core.GeoPTHKind},
	} {
		enc, err := ResolveEncoder(c.kind, c.path, "tiny", ds)
		if err != nil || enc.Kind() != c.want {
			t.Errorf("ResolveEncoder(%q, %s): %v, want a %s encoder", c.kind, c.path, err, c.want)
		}
	}
	if _, err := ResolveEncoder(core.CNNKind, model, "tiny", ds); err == nil || !strings.Contains(err.Error(), "-encoder cnn was requested") {
		t.Errorf("kind mismatch: %v", err)
	}
	if _, err := ResolveEncoder("bogus", model, "tiny", ds); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ResolveEncoder(core.GeoPTHKind, model, "bogus", ds); err == nil {
		t.Error("unknown scale accepted")
	}
}
