package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"traj2hash"
	"traj2hash/internal/core"
	"traj2hash/internal/engine"
	"traj2hash/internal/hamming"
	"traj2hash/internal/wal"
)

// The layers a span can be charged to. core stands for core+nn: the
// encoder's forward pass runs nn kernels inside one public call, so the
// two cannot be told apart from outside (nn.matmul_into_ns times the
// kernel alone). engine stands for engine+topk, and on the search paths
// also carries the facade's result copy.
const (
	layerCore    = "core"
	layerHamming = "hamming"
	layerEngine  = "engine"
	layerWAL     = "wal"
	layerServe   = "serve"
)

var shareLayers = []string{layerCore, layerHamming, layerEngine, layerWAL, layerServe}

// span is one timed call into a layer. Spans of one operation share Op
// (the id of the operation's root span); Parent is the span that caused
// this one, 0 for a root. Times are nanoseconds since the recorder began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is the benchmark's in-memory span store. Every method is a
// no-op on a nil recorder, so the untraced baseline runs the identical
// call sequence with no spans.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// opHandle points at an open root span.
type opHandle struct {
	idx int
	id  uint64
}

func (r *recorder) add(s span) opHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = uint64(len(r.spans) + 1)
	if s.Parent == 0 {
		s.Op = s.ID
	}
	r.spans = append(r.spans, s)
	return opHandle{idx: len(r.spans) - 1, id: s.ID}
}

// begin opens the root span of one operation.
func (r *recorder) begin(name, layer string) opHandle {
	if r == nil {
		return opHandle{}
	}
	return r.add(span{Name: name, Layer: layer, Start: int64(time.Since(r.t0))})
}

// end closes a root span.
func (r *recorder) end(h opHandle) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[h.idx].End = now
}

// child runs fn as a span under the operation h.
func (r *recorder) child(h opHandle, name, layer string, fn func()) {
	if r == nil {
		fn()
		return
	}
	start := int64(time.Since(r.t0))
	fn()
	end := int64(time.Since(r.t0))
	r.add(span{Parent: h.id, Op: h.id, Name: name, Layer: layer, Start: start, End: end})
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps every span as JSON.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerShares is the outcome of a traced loop: each layer's self time as
// a share of the operation's wall time, what no span covers, and the
// operation's median wall time.
type layerShares struct {
	byLayer      map[string]float64
	unattributed float64
	ops          int
	opMedianUS   float64
}

// selfTimes returns, per span, its duration minus the part its child
// spans cover, summed by layer; for root spans, by name, the summed self
// time no layer was charged and every root's duration.
func selfTimes(spans []span) (byLayer, rootSelf map[string]float64, rootDurs map[string][]float64) {
	covered := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byLayer = map[string]float64{}
	rootSelf = map[string]float64{}
	rootDurs = map[string][]float64{}
	for _, s := range spans {
		d := s.End - s.Start
		self := float64(d - covered[s.ID])
		if s.Parent == 0 {
			rootDurs[s.Name] = append(rootDurs[s.Name], float64(d))
			if s.Layer == "" {
				rootSelf[s.Name] += self
				continue
			}
		}
		byLayer[s.Layer] += self
	}
	return byLayer, rootSelf, rootDurs
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// shares charges every span under the root operations named root to its
// layer: share = Σ self time of the layer ÷ Σ wall time of the roots.
func (r *recorder) shares(root string) layerShares {
	byLayer, rootSelf, rootDurs := selfTimes(r.snapshot())
	out := layerShares{byLayer: map[string]float64{}, ops: len(rootDurs[root])}
	total := sum(rootDurs[root])
	if total <= 0 {
		return out
	}
	for l, v := range byLayer {
		out.byLayer[l] = v / total
	}
	out.unattributed = rootSelf[root] / total
	out.opMedianUS = median(rootDurs[root]) / 1e3
	return out
}

// tracedLoop runs the fixture's decomposed operation at concurrency one
// for dur and returns the wall time of each operation (µs) and how many
// failed.
func tracedLoop(ctx context.Context, fx fixture, rec *recorder, dur time.Duration, from int) (durs []float64, failed int) {
	begin := time.Now()
	for i := from; ctx.Err() == nil && time.Since(begin) < dur; i++ {
		t := time.Now()
		ok := fx.trace(ctx, rec, i)
		durs = append(durs, us(time.Since(t)))
		if !ok {
			failed++
		}
	}
	return durs, failed
}

// mutationTwin is the decomposed mutation path of write_path: an engine
// and a WAL store configured as the facade configures its own, driven
// stage by stage so each stage is one span.
type mutationTwin struct {
	eng   *engine.Engine
	store *wal.Store
	dir   string
	owned []int
}

func newMutationTwin(e env, dir string) (*mutationTwin, error) {
	eng, err := engine.New(engine.Options{
		Backends: []string{engine.HammingHybridName, engine.EuclideanBFName, engine.HammingBFName},
		Shards:   e.workers,
		Workers:  e.workers,
		Config:   engine.Config{Bits: e.sc.dim},
	})
	if err != nil {
		return nil, fmt.Errorf("twin engine: %w", err)
	}
	// Cadence snapshots are off: they are the facade's job (it owns the
	// state to capture) and a periodic spike, not part of a mutation's
	// own stages.
	store, _, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 1, SnapshotEvery: -1})
	if err != nil {
		return nil, fmt.Errorf("twin WAL: %w", err)
	}
	return &mutationTwin{eng: eng, store: store, dir: dir}, nil
}

func (m *mutationTwin) close() error { return removeAll(m.store.Close(), m.dir) }

func flatXY(t traj2hash.Trajectory) []float64 {
	out := make([]float64, 0, 2*len(t))
	for _, p := range t {
		out = append(out, p.X, p.Y)
	}
	return out
}

// mutate runs mutation i of the Add:Add:Add:Update:Delete cycle.
func (m *mutationTwin) mutate(rec *recorder, enc core.Encoder, t traj2hash.Trajectory, i int) bool {
	op := rec.begin("op.mutate", "")
	defer rec.end(op)
	var err error
	if i%5 == 4 && len(m.owned) > 0 {
		id := m.owned[0]
		m.owned = m.owned[1:]
		rec.child(op, "engine.delete", layerEngine, func() { err = m.eng.Delete(id) })
		if err != nil {
			return false
		}
		rec.child(op, "wal.append", layerWAL, func() { err = m.store.Append(wal.Record{Op: wal.OpDelete, ID: id}) })
		return err == nil
	}
	var emb []float64
	var code hamming.Code
	rec.child(op, "core.embed", layerCore, func() { emb = enc.Embed(t) })
	rec.child(op, "hamming.sign", layerHamming, func() { code = hamming.FromSigns(emb) })
	r := wal.Record{Op: wal.OpAdd, Emb: emb, Code: code, Traj: flatXY(t)}
	if i%5 == 3 && len(m.owned) > 0 {
		r.Op, r.ID = wal.OpUpdate, m.owned[i%len(m.owned)]
		rec.child(op, "engine.update", layerEngine, func() { err = m.eng.Update(r.ID, emb, code) })
	} else {
		rec.child(op, "engine.add", layerEngine, func() { r.ID, err = m.eng.Add(emb, code) })
		if err == nil {
			m.owned = append(m.owned, r.ID)
		}
	}
	if err != nil {
		return false
	}
	rec.child(op, "wal.append", layerWAL, func() { err = m.store.Append(r) })
	return err == nil
}
