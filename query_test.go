package traj2hash

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"traj2hash/internal/engine"
	"traj2hash/internal/faultinject"
	"traj2hash/internal/wal"
)

// TestIndexSurface pins the exported method set of *Index against a
// sorted golden list: the facade is one query path (Do), its three
// benchmark-pinned conveniences, one batch form, one radius form, and the
// mutation/accessor methods. A new method is a conscious diff here.
func TestIndexSurface(t *testing.T) {
	want := []string{
		"AddBatchCtx", "AddCtx", "ApproxDistanceByVec", "Close",
		"Delete", "Do", "Embedding", "Encoder", "HybridFastPaths", "Len",
		"Recovery", "SearchBatchCtx", "SearchByVecCtx", "SearchCtx",
		"SearchEuclideanByVec", "Stats", "Trajectory", "Update", "WithinCtx",
	}
	typ := reflect.TypeOf(&Index{})
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("*Index exports %d methods:\n got %v\nwant %v", len(got), got, want)
	}
}

// TestFacadeExports pins the package-level exported identifiers of the
// facade (types, functions, variables and constants of the non-test
// files) against a sorted golden list, as TestIndexSurface pins the
// methods of *Index: the facade's size changes only by a conscious diff
// here.
func TestFacadeExports(t *testing.T) {
	want := []string{
		"BuildDataset", "CLS", "ChengDu", "City", "Code", "Config", "DTW",
		"Dataset", "DefaultConfig", "DefaultMetricsRegistry", "Distance",
		"DistanceFunc", "DistanceMatrix", "EDR", "ERP", "Encoder",
		"EncoderAttention", "EncoderCNN", "EncoderGeoPTH", "EncoderKinds",
		"ErrClosed", "ErrDeleted", "ErrNonFiniteEmbedding", "ErrNotFound",
		"ErrWALFailed", "Evaluate", "Frechet", "GroundTruth",
		"HammingDistance", "Hausdorff", "History", "Index", "LoadDataset",
		"LoadEncoderFile", "LowerBound", "Mean",
		"Metrics", "MetricsRegistry", "MetricsSnapshot", "Model", "New",
		"NewEncoder", "NewIndex", "NewIndexWith", "NewMetricsRegistry",
		"Options", "Point", "Porto", "ProjectLonLat", "Query", "RecoveryInfo",
		"Result", "SaveEncoderFile", "SignCode", "Space", "SpaceEuclidean",
		"SpaceHamming", "SplitSpec", "Stats", "Status", "TrainData",
		"Trainable", "Trajectory",
	}
	nonTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nonTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["traj2hash"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							got = append(got, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("package traj2hash exports %d identifiers:\n got %v\nwant %v", len(got), got, want)
	}
}

// TestDoParity locks Do to the engine: by Traj, Vec and Code, in both
// spaces, over 1 and 3 shards, before and after deletes with compaction,
// the answer is byte-identical to engine.SearchWithCtx on independently
// prepared representations under the strategy the space is routed to —
// and the three pinned conveniences equal Do.
func TestDoParity(t *testing.T) {
	m, ds := untrainedFixture(t)
	ctx := context.Background()
	const k = 7
	strategies := map[Space]string{SpaceHamming: engine.HammingHybridName, SpaceEuclidean: engine.EuclideanBFName}
	for _, shards := range []int{1, 3} {
		ix, err := NewIndexWith(m, ds.Database, Options{Shards: shards, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"fresh", "compacted"} {
			if phase == "compacted" {
				for id := 0; id < len(ds.Database); id += 3 {
					if err := ix.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				if err := ix.eng.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			for qi, q := range ds.Queries {
				emb := m.Embed(q)
				code := SignCode(emb)
				for space, name := range strategies {
					tag := fmt.Sprintf("shards=%d %s q%d space=%d", shards, phase, qi, space)
					want, wantSt, err := ix.eng.SearchWithCtx(ctx, name, engine.Query{Emb: emb, Code: code}, k)
					if err != nil || !wantSt.Complete || len(want) != k {
						t.Fatalf("%s: engine reference = (%d results, %+v, %v)", tag, len(want), wantSt, err)
					}
					inputs := map[string]Query{
						"Traj": {Traj: q, K: k, Space: space},
						"Vec":  {Vec: emb, K: k, Space: space},
					}
					if space == SpaceHamming {
						inputs["Code"] = Query{Code: code, K: k}
					}
					for in, query := range inputs {
						got, st := ix.Do(ctx, query)
						if !reflect.DeepEqual(st, wantSt) {
							t.Fatalf("%s by %s: status %+v, engine %+v", tag, in, st, wantSt)
						}
						assertSameResults(t, tag+" by "+in, got, want)
					}
				}
				// The pinned conveniences are Do under another name.
				byTraj, st := ix.SearchCtx(ctx, q, k)
				assertSameResults(t, "SearchCtx", byTraj, do(t, ix, Query{Traj: q, K: k}))
				byVec, st2 := ix.SearchByVecCtx(ctx, emb, k)
				assertSameResults(t, "SearchByVecCtx", byVec, do(t, ix, Query{Vec: emb, K: k}))
				if !st.Complete || !st2.Complete {
					t.Fatalf("convenience statuses %+v %+v", st, st2)
				}
				assertSameResults(t, "SearchEuclideanByVec", ix.SearchEuclideanByVec(emb, k),
					do(t, ix, Query{Vec: emb, K: k, Space: SpaceEuclidean}))
			}
		}
	}
}

// TestDoInvalidQueries: every malformed Query shape comes back as
// Status.Err with no results — and without consulting a shard, so the
// engine's query counter does not move. That includes a Vec or Code that
// is not of the encoder's dimension: half a vector used to be answered
// Complete with distances over the prefix, a longer one (and either under
// the Hamming backends) panicked in every shard.
func TestDoInvalidQueries(t *testing.T) {
	m, ds := untrainedFixture(t)
	reg := NewMetricsRegistry()
	ix, err := NewIndexWith(m, ds.Database, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[0]
	emb := m.Embed(q)
	code := SignCode(emb)
	short, long := emb[:len(emb)/2], append(append([]float64(nil), emb...), 1)
	for name, query := range map[string]Query{
		"no input":           {K: 5},
		"traj and vec":       {Traj: q, Vec: emb, K: 5},
		"vec and code":       {Vec: emb, Code: code, K: 5},
		"all three":          {Traj: q, Vec: emb, Code: code, K: 5},
		"code to euclidean":  {Code: code, K: 5, Space: SpaceEuclidean},
		"unknown space":      {Vec: emb, K: 5, Space: SpaceEuclidean + 1},
		"negative space":     {Vec: emb, K: 5, Space: -1},
		"short vec":          {Vec: short, K: 5, Space: SpaceEuclidean},
		"long vec":           {Vec: long, K: 5, Space: SpaceEuclidean},
		"short vec, hamming": {Vec: short, K: 5},
		"long vec, hamming":  {Vec: long, K: 5},
		"short code":         {Code: SignCode(short), K: 5},
	} {
		rs, st := ix.Do(context.Background(), query)
		if st.Err == nil || st.Complete || rs != nil || st.ShardsOK != 0 {
			t.Errorf("%s: got (%v, %+v), want no results and Status.Err", name, rs, st)
		}
	}
	if got := ix.Stats().Counters["engine.search.total"]; got != 0 {
		t.Errorf("invalid queries moved engine.search.total to %d", got)
	}
	if got := ix.Stats().Counters["engine.shard.panics"]; got != 0 {
		t.Errorf("invalid queries panicked in %d shards", got)
	}
	// The same vectors have no learned distance to a stored item either.
	for name, qe := range map[string][]float64{"short": short, "long": long, "empty": nil} {
		if d := ix.ApproxDistanceByVec(qe, 0); !math.IsNaN(d) {
			t.Errorf("ApproxDistanceByVec of a %s vector = %v, want NaN", name, d)
		}
	}
	if d := ix.ApproxDistanceByVec(emb, 0); math.IsNaN(d) {
		t.Error("ApproxDistanceByVec of a well-formed vector is NaN")
	}
	// A valid query on the same index still counts.
	do(t, ix, Query{Code: code, K: 5})
	if got := ix.Stats().Counters["engine.search.total"]; got != 1 {
		t.Errorf("engine.search.total = %d after one valid query", got)
	}
}

// TestSearchByVecCtxAllocs pins the allocation count of the facade's hot
// query path on a single-shard index (deterministic: one fan-out worker).
// The parent measured 21 allocs/op; sharing engine.Result removed the
// per-search copy of the result slice.
func TestSearchByVecCtxAllocs(t *testing.T) {
	m, ds := untrainedFixture(t)
	ix, err := NewIndexWith(m, ds.Database, Options{Shards: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	qe := m.Embed(ds.Queries[0])
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() { ix.SearchByVecCtx(ctx, qe, 5) }); n > 20 {
		t.Errorf("SearchByVecCtx allocates %v times per search, want <= 20", n)
	}
}

// densify resamples t to n points by linear interpolation — a trajectory
// whose WAL record is as large as a test needs it to be.
func densify(t Trajectory, n int) Trajectory {
	out := make(Trajectory, n)
	for i := range out {
		pos := float64(i) * float64(len(t)-1) / float64(n-1)
		j := int(pos)
		if j >= len(t)-1 {
			j = len(t) - 2
		}
		f := pos - float64(j)
		out[i].X = t[j].X + f*(t[j+1].X-t[j].X)
		out[i].Y = t[j].Y + f*(t[j+1].Y-t[j].Y)
	}
	return out
}

// TestAddBatchAppliedPrefixIsWhatRecovers pins AddBatchCtx's group
// contract: a group of the batch reaches the log in one write and one
// fsync, and when either fails no id of that group is returned, the error
// wraps the fault, and reopening the directory recovers some prefix of the
// batch that covers every returned id. With a batch spanning two groups,
// a failure in the second returns exactly the first group's ids — and
// NewIndexWith's seed batch reports the same count in its error.
func TestAddBatchAppliedPrefixIsWhatRecovers(t *testing.T) {
	m, ds := untrainedFixture(t)
	opts := func(dir string, fs *faultinject.FS) Options {
		o := Options{Shards: 2, WALDir: dir, SnapshotEvery: -1, WALSyncEvery: 1}
		if fs != nil {
			o.walFS = fs
		}
		return o
	}
	small := ds.Database[:6]
	// Six records of ~400 KB each: the first group closes once its frames
	// pass walGroupBytes, the rest of the batch is the second.
	large := make([]Trajectory, 6)
	for i := range large {
		large[i] = densify(ds.Database[i], 25_000)
	}
	firstGroup, frames := 0, 0
	for frames < walGroupBytes {
		emb := m.Embed(large[firstGroup])
		frames += wal.Record{Emb: emb, Code: SignCode(emb), Traj: flattenTraj(large[firstGroup])}.FrameLen()
		firstGroup++
	}
	if firstGroup == 0 || firstGroup >= len(large) {
		t.Fatalf("the large batch is %d group-one items of %d; it must span two groups", firstGroup, len(large))
	}

	// Recon: the writes and fsyncs spent opening the log, then one of each
	// per group.
	recon := faultinject.NewFS(nil)
	rix, err := NewIndexWith(m, nil, opts(t.TempDir(), recon))
	if err != nil {
		t.Fatal(err)
	}
	openWrites, openSyncs, _ := recon.Counts()
	for groups, batch := range map[int][]Trajectory{1: small, 2: large} {
		w0, s0, _ := recon.Counts()
		if _, err := rix.AddBatchCtx(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if w, s, _ := recon.Counts(); w-w0 != groups || s-s0 != groups {
			t.Fatalf("recon: a %d-item batch took %d writes and %d fsyncs, want %d of each", len(batch), w-w0, s-s0, groups)
		}
	}
	if err := rix.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		batch []Trajectory
		arm   func(*faultinject.FS)
		torn  bool // the fault leaves half a group on disk
		acked int  // ids AddBatchCtx must return
	}{
		{"torn write", small, func(f *faultinject.FS) { f.ShortWriteAt(openWrites + 1) }, true, 0},
		{"failed fsync", small, func(f *faultinject.FS) { f.FailSyncAt(openSyncs + 1) }, false, 0},
		{"second group's write torn", large, func(f *faultinject.FS) { f.ShortWriteAt(openWrites + 2) }, true, firstGroup},
		{"second group's fsync failed", large, func(f *faultinject.FS) { f.FailSyncAt(openSyncs + 2) }, false, firstGroup},
	}
	for _, tc := range cases {
		for _, seed := range []bool{false, true} {
			tag := fmt.Sprintf("%s (seed batch: %v)", tc.name, seed)
			dir := t.TempDir()
			ffs := faultinject.NewFS(nil)
			tc.arm(ffs)
			if seed {
				_, err = NewIndexWith(m, tc.batch, opts(dir, ffs))
				want := fmt.Sprintf("after %d of %d trajectories", tc.acked, len(tc.batch))
				if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, faultinject.ErrCrashed) {
					t.Fatalf("%s: err %v, want the crash wrapped with %q", tag, err, want)
				}
			} else {
				ix, err := NewIndexWith(m, nil, opts(dir, ffs))
				if err != nil {
					t.Fatal(err)
				}
				ids, err := ix.AddBatchCtx(context.Background(), tc.batch)
				if !errors.Is(err, faultinject.ErrCrashed) || !errors.Is(err, ErrWALFailed) {
					t.Fatalf("%s: AddBatchCtx error %v, want the crash wrapped beside ErrWALFailed", tag, err)
				}
				if len(ids) != tc.acked {
					t.Fatalf("%s: AddBatchCtx returned ids %v, want exactly the %d of the groups that committed", tag, ids, tc.acked)
				}
				for i, id := range ids {
					if id != i {
						t.Fatalf("%s: returned ids %v are not a prefix of the batch", tag, ids)
					}
				}
				ix.Close()
			}
			re, err := NewIndexWith(m, nil, opts(dir, nil))
			if err != nil {
				t.Fatalf("%s: reopen: %v", tag, err)
			}
			r := re.Len()
			if r < tc.acked || r > len(tc.batch) {
				t.Fatalf("%s: reopen recovered %d items, want between the %d acknowledged and the %d of the batch", tag, r, tc.acked, len(tc.batch))
			}
			if tc.torn && r == len(tc.batch) {
				t.Fatalf("%s: reopen recovered the whole batch behind a write that was torn in half", tag)
			}
			for i := 0; i < len(tc.batch); i++ {
				tr, ok := re.Trajectory(i)
				if ok != (i < r) || (ok && !reflect.DeepEqual(tr, tc.batch[i])) {
					t.Fatalf("%s: recovered id %d (present: %v) — the %d recovered items must be batch[:%d], bit for bit", tag, i, ok, r, r)
				}
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestHybridFastPathsSurvivesCompaction: Index.HybridFastPaths is a
// monotone total — an automatic compaction (25 % tombstones) rebuilds
// the shard's backends and must not reset it.
func TestHybridFastPathsSurvivesCompaction(t *testing.T) {
	m, ds := untrainedFixture(t)
	ix, err := NewIndexWith(m, ds.Database, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An indexed trajectory sits in its own bucket, so K = 1 always takes
	// the table-lookup path.
	for _, tr := range ds.Database {
		do(t, ix, Query{Traj: tr, K: 1})
	}
	before := ix.HybridFastPaths()
	if before != int64(len(ds.Database)) {
		t.Fatalf("HybridFastPaths = %d after %d self-queries", before, len(ds.Database))
	}
	for id := 0; id < len(ds.Database)*3/10; id++ {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.HybridFastPaths(); got != before {
		t.Fatalf("HybridFastPaths went from %d to %d across a compaction", before, got)
	}
	for _, tr := range ds.Database {
		do(t, ix, Query{Traj: tr, K: 1})
	}
	if got := ix.HybridFastPaths(); got <= before {
		t.Fatalf("HybridFastPaths = %d after another round of queries, want more than %d", got, before)
	}
}
