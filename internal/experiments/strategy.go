package experiments

import (
	"fmt"

	"traj2hash/internal/engine"
	"traj2hash/internal/hamming"
)

// strategy is one search strategy of the efficiency and accuracy studies
// (Section V-E) loaded for measurement: an engine strategy, built by its
// registry name, over an engine.Store fed the database, plus the prepared
// queries it will be asked. Store and strategy are the ones an engine
// shard is made of, so the experiments time and score exactly the code
// that serves production queries through the public Index. Items and
// queries are engine.Query values carrying whichever representation the
// strategy reads — embeddings for the Euclidean ones, codes for the
// Hamming ones, or both — and the store keeps only the columns it is fed.
type strategy struct {
	be      engine.Backend
	st      *engine.Store
	queries []engine.Query
}

// newStrategy builds the named strategy over db and checks every prepared
// query against the database's dimensions, so a mismatch is an error here
// rather than a wrong answer (or an index panic) mid-measurement.
func newStrategy(name string, db, queries []engine.Query) (*strategy, error) {
	if len(db) == 0 || len(queries) == 0 {
		return nil, fmt.Errorf("experiments: %s strategy over an empty database or query set", name)
	}
	be, err := engine.NewBackend(name, engine.Config{})
	if err != nil {
		return nil, err
	}
	st := engine.NewStore(engine.Config{}, be)
	for i, it := range db {
		if err := st.Add(it.Emb, it.Code); err != nil {
			return nil, fmt.Errorf("experiments: %s database item %d: %w", name, i, err)
		}
	}
	for i, q := range queries {
		if len(q.Emb) != len(db[0].Emb) || q.Code.Bits != db[0].Code.Bits {
			return nil, fmt.Errorf("experiments: %s query %d has dim %d / %d bits, the database has dim %d / %d bits",
				name, i, len(q.Emb), q.Code.Bits, len(db[0].Emb), db[0].Code.Bits)
		}
	}
	return &strategy{be: be, st: st, queries: queries}, nil
}

// runAll answers every prepared query, returning the top-k database ids
// per query, in query order; the caller evaluates them against exact
// ground truth with package eval.
func (s *strategy) runAll(k int) [][]int {
	out := make([][]int, len(s.queries))
	for qi, q := range s.queries {
		rs := s.be.Search(s.st, q, k)
		ids := make([]int, len(rs))
		for i, r := range rs {
			ids[i] = r.ID
		}
		out[qi] = ids
	}
	return out
}

// fastPaths reports how many searches of a hamming-hybrid strategy the
// radius-2 neighborhood answered — the paper's table-lookup case (0 for
// every other backend) — the Figure 5/6 analysis of when the hybrid
// degenerates to Hamming-BF.
func (s *strategy) fastPaths() int64 { return s.st.FastPathCount() }

// embQueries wraps embeddings as Euclidean-space items or queries.
func embQueries(embs [][]float64) []engine.Query {
	out := make([]engine.Query, len(embs))
	for i, e := range embs {
		out[i] = engine.Query{Emb: e}
	}
	return out
}

// codeQueries wraps codes as Hamming-space items or queries.
func codeQueries(codes []hamming.Code) []engine.Query {
	out := make([]engine.Query, len(codes))
	for i, c := range codes {
		out[i] = engine.Query{Code: c}
	}
	return out
}
