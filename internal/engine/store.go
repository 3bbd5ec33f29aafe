package engine

import (
	"fmt"
	"sync/atomic"

	"traj2hash/internal/hamming"
)

// Store is the item store every search strategy reads: one column of
// embeddings (a chunked slab) and one of hash codes (a hamming.Slab),
// both addressed by local ids 0,1,2,… in insertion order, plus the
// strategies built over them. The store is what is fed — Add, Update —
// and it is the one place the representation rules are enforced, before
// anything is written: an item is never half stored and a strategy's
// index (see Indexer) never disagrees with the columns. An engine shard
// is a Store under a lock with global ids and tombstones beside it.
//
// A store keeps the columns its first item brings: both in an engine
// (which derives a missing code from the embedding's signs), only
// embeddings or only codes when a standalone consumer feeds just one —
// and a column once started must be fed on every Add. Strategies whose
// column is absent answer nothing.
//
// A Store is NOT goroutine-safe by itself: callers serialize Add/Update
// against the strategies' Search. Concurrent Searches are safe.
type Store struct {
	bits       int // Config.Bits: the code length the first code must have, 0 = any
	embs       slab
	codes      hamming.Slab
	strategies []Backend    // those that are Indexers are told of every write
	fastPaths  atomic.Int64 // searches hamming-hybrid answered from its radius-2 neighborhood
}

// NewStore builds an empty store searched by the given strategies, each
// fresh from NewBackend and handed to no other store.
func NewStore(cfg Config, strategies ...Backend) *Store {
	return &Store{bits: cfg.Bits, strategies: strategies}
}

// Len returns the number of items stored.
func (st *Store) Len() int { return max(st.embs.len(), st.codes.Len()) }

// FastPathCount returns how many hamming-hybrid searches of this store
// the radius-2 neighborhood alone answered (it held at least k items).
// Safe to read concurrently with searches.
func (st *Store) FastPathCount() int64 { return st.fastPaths.Load() }

// Add appends one item under the next local id, copying the embedding
// and the code in. Either may be empty, not both; both must be consistent
// with the items already stored (same columns, same dimension, same bit
// length) and a first code with Config.Bits. A refused item changes
// nothing.
func (st *Store) Add(emb []float64, code hamming.Code) error {
	if err := st.check(emb, code); err != nil {
		return err
	}
	local := st.Len()
	if len(emb) != 0 {
		st.embs.append(emb)
	}
	if code.Bits != 0 {
		st.codes.Append(code)
	}
	st.wrote(local)
	return nil
}

// Update replaces the item stored under local id in place, keeping its id
// and insertion-order position, under the same rules as Add; an
// out-of-range id is an error. A refused update changes nothing.
func (st *Store) Update(local int, emb []float64, code hamming.Code) error {
	if uint(local) >= uint(st.Len()) {
		return fmt.Errorf("engine: update of unknown id %d (have %d)", local, st.Len())
	}
	if err := st.check(emb, code); err != nil {
		return err
	}
	if len(emb) != 0 {
		st.embs.set(local, emb)
	}
	if code.Bits != 0 {
		st.codes.Set(local, code)
	}
	st.wrote(local)
	return nil
}

// wrote tells the strategies that keep an index that item local was
// appended or replaced.
func (st *Store) wrote(local int) {
	for _, b := range st.strategies {
		if ix, ok := b.(Indexer); ok {
			ix.Index(st, local)
		}
	}
}

// check is the representation rules of a stored item: it has an embedding
// or a code; the first item starts the columns, its code bound only by
// Config.Bits; every later one brings exactly those columns at their
// dimension and bit length.
func (st *Store) check(emb []float64, code hamming.Code) error {
	switch {
	case len(emb) == 0 && code.Bits == 0:
		return fmt.Errorf("engine: item has neither an embedding nor a code")
	case st.Len() == 0:
		if code.Bits != 0 && st.bits != 0 && code.Bits != st.bits {
			return fmt.Errorf("engine: code has %d bits, Config.Bits is %d", code.Bits, st.bits)
		}
	case len(emb) != st.embs.dim:
		return fmt.Errorf("engine: embedding dim %d, want %d", len(emb), st.embs.dim)
	case code.Bits != st.codeBits():
		return fmt.Errorf("engine: code has %d bits, want %d", code.Bits, st.codeBits())
	}
	return nil
}

// codeBits returns the bit length of the code column, 0 without one.
func (st *Store) codeBits() int {
	if st.codes.Len() == 0 {
		return 0
	}
	return st.codes.At(0).Bits
}

// signCode is the engine's pairing rule, Code = sign(Embed): an engine
// item always has an embedding; a zero code is derived from its signs,
// and an explicit one must have one bit per dimension, so the two
// representations always describe the same item.
func signCode(emb []float64, code hamming.Code) (hamming.Code, error) {
	switch {
	case len(emb) == 0:
		return code, fmt.Errorf("engine: empty embedding")
	case code.Bits == 0:
		return hamming.FromSigns(emb), nil
	case code.Bits != len(emb):
		return code, fmt.Errorf("engine: code has %d bits but the embedding has dim %d (the Code = sign(Embed) convention requires one bit per dimension)",
			code.Bits, len(emb))
	}
	return code, nil
}
