package engine

import (
	"errors"
	"fmt"

	"traj2hash/internal/hamming"
)

// ErrNotFound marks operations on a global id the engine never assigned.
var ErrNotFound = errors.New("engine: id not found")

// ErrDeleted marks operations on a global id that was assigned and later
// deleted. Deleted ids are never reused, so the two conditions are
// permanently distinguishable.
var ErrDeleted = errors.New("engine: id deleted")

// lookup resolves a global id to its shard under addMu, distinguishing
// never-assigned from deleted.
func (e *Engine) lookup(id int) (loc, error) {
	if id < 0 || id >= e.next {
		return loc{}, fmt.Errorf("%w: %d (ids 0..%d assigned)", ErrNotFound, id, e.next-1)
	}
	l := e.locs[id]
	if l.local < 0 {
		return loc{}, fmt.Errorf("%w: %d", ErrDeleted, id)
	}
	return l, nil
}

// Delete tombstones one item: the id disappears from every subsequent
// Search/WithinCtx answer immediately, while its per-shard slot survives
// until compaction reclaims it (backends have no removal primitive — MIH
// buckets and VP-trees do not shrink incrementally). Deleting an already
// deleted id returns ErrDeleted; an id never assigned, ErrNotFound.
//
// When the shard's tombstone density reaches Options.CompactAt the
// delete finishes by compacting that shard synchronously — rebuilding
// its backends over the live items only — so tombstone overhead (the
// k+deadN search over-fetch) stays bounded without a background
// goroutine. Compaction never changes answers, only their cost.
func (e *Engine) Delete(id int) error {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	l, err := e.lookup(id)
	if err != nil {
		return err
	}
	sh := e.shards[l.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.dead[l.local] = true
	sh.deadN++
	e.locs[id].local = -1
	e.live--
	if e.met != nil {
		e.met.deletes.Inc()
	}
	if e.opts.CompactAt > 0 && float64(sh.deadN) >= e.opts.CompactAt*float64(len(sh.ids)) {
		return e.compactShardLocked(int(l.shard))
	}
	return nil
}

// Update replaces the item stored under id — embedding and code — in
// place: the global id, its shard, and its position in the shard's
// insertion order are all preserved, which is what keeps the
// deterministic (score, id) tie-break contract intact under mutation.
// The same representation rules as Add apply: a zero code is derived
// from the embedding's signs, an explicit code needs one bit per
// dimension, and the new embedding must keep the item's dimensionality
// (a store's columns have a fixed dimension).
func (e *Engine) Update(id int, emb []float64, code hamming.Code) error {
	code, err := signCode(emb, code)
	if err != nil {
		return err
	}
	e.addMu.Lock()
	defer e.addMu.Unlock()
	l, err := e.lookup(id)
	if err != nil {
		return err
	}
	sh := e.shards[l.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(emb) != e.dim {
		return fmt.Errorf("engine: update of id %d changes dim %d to %d (updates must keep the item's dimensionality)",
			id, e.dim, len(emb))
	}
	if err := sh.store.Update(int(l.local), emb, code); err != nil {
		return err
	}
	if e.met != nil {
		e.met.updates.Inc()
	}
	return nil
}

// Compact rebuilds every shard's backends over its live items,
// reclaiming all tombstoned slots at once. Usually unnecessary — Delete
// compacts shards automatically at the Options.CompactAt threshold — but
// available for callers that disabled the automatic trigger or want the
// over-fetch overhead back to zero before a query burst.
func (e *Engine) Compact() error {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	for si := range e.shards {
		if err := e.compactShard(si); err != nil {
			return err
		}
	}
	return nil
}

// compactShard takes shard si's write lock for one compaction pass.
// Callers hold addMu.
func (e *Engine) compactShard(si int) error {
	sh := e.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return e.compactShardLocked(si)
}

// compactShardLocked rebuilds shard si over its live items: fresh
// backends are fed the surviving (embedding, code) pairs in id order,
// then swapped in together with the compacted canonical arrays. Global
// ids are never renumbered — only local indices shift, and e.locs is
// remapped to match. Callers hold addMu and the shard's write lock.
//
// Exactness: per-shard results are remapped to global ids before the
// merge, and the merge is by (score, global id) — so the answer set is a
// pure function of the live (id, embedding, code) multiset, which
// compaction preserves. Rebuilding from shard-local canonical storage
// also means compaction needs no engine-wide pause beyond this shard's
// write lock.
func (e *Engine) compactShardLocked(si int) error {
	sh := e.shards[si]
	if sh.deadN == 0 {
		return nil
	}
	next, err := e.newItems()
	if err != nil {
		return fmt.Errorf("engine: compaction of shard %d: %w", si, err)
	}
	for local, id := range sh.ids {
		if sh.dead[local] {
			continue
		}
		n, err := next.put(id, sh.store.embs.at(local), sh.store.codes.At(local))
		if err != nil {
			return fmt.Errorf("engine: compaction of shard %d: %w", si, err)
		}
		e.locs[id].local = n
	}
	next.store.fastPaths.Store(sh.store.FastPathCount())
	sh.items, sh.deadN = next, 0
	if e.met != nil {
		e.met.compactions.Inc()
	}
	return nil
}

// RestoreItem is one surviving item of a restored engine state: its
// original global id plus the canonical representation.
type RestoreItem struct {
	ID   int
	Emb  []float64
	Code hamming.Code
}

// Restore rebuilds an empty engine from a durability snapshot: items
// (strictly ascending by ID) are placed back into the shards their ids
// map to, and next becomes the next id Add will assign. Gaps in the id
// sequence — items deleted before the snapshot — are recorded as
// engine-level tombstones, so Delete/Update on them keep reporting
// ErrDeleted after recovery and ids are still never reused. Because
// placement is id-driven (shard = id mod shards) and insertion follows
// id order, a restored engine answers queries byte-identically to one
// that performed the original mutation history.
func (e *Engine) Restore(next int, items []RestoreItem) error {
	e.addMu.Lock()
	defer e.addMu.Unlock()
	if e.next != 0 {
		return fmt.Errorf("engine: Restore needs an empty engine (has %d ids assigned)", e.next)
	}
	if next < 0 {
		return fmt.Errorf("engine: Restore next %d is negative", next)
	}
	prev := -1
	for _, it := range items {
		if it.ID <= prev {
			return fmt.Errorf("engine: Restore items out of order (%d after %d; ids must be strictly ascending)", it.ID, prev)
		}
		if it.ID >= next {
			return fmt.Errorf("engine: Restore item id %d is not below next %d", it.ID, next)
		}
		prev = it.ID
	}
	e.locs = make([]loc, next)
	for id := 0; id < next; id++ {
		e.locs[id] = loc{shard: int32(id % len(e.shards)), local: -1}
	}
	for _, it := range items {
		if err := e.restoreItem(it); err != nil {
			return err
		}
	}
	e.next = next
	return nil
}

// restoreItem places one snapshot item back into the shard its id maps
// to, under that shard's write lock. Callers hold addMu.
func (e *Engine) restoreItem(it RestoreItem) error {
	code, err := signCode(it.Emb, it.Code)
	if err != nil {
		return fmt.Errorf("engine: Restore item %d: %w", it.ID, err)
	}
	if e.dim != 0 && len(it.Emb) != e.dim {
		return fmt.Errorf("engine: Restore item %d: embedding dim %d, want %d", it.ID, len(it.Emb), e.dim)
	}
	si := it.ID % len(e.shards)
	sh := e.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	local, err := sh.put(it.ID, it.Emb, code)
	if err != nil {
		return fmt.Errorf("engine: Restore item %d: %w", it.ID, err)
	}
	e.dim = len(it.Emb)
	e.locs[it.ID].local = local
	e.live++
	return nil
}
