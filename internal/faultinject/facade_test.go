package faultinject

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"traj2hash"
)

// TestDoStrategyUnderDeadline drives the PUBLIC facade through the
// SetDefault seam and covers the cells the old Index method matrix could
// not express — a named strategy under a deadline, returning a Status.
// The index is configured with the fault-injecting backend wrapping
// Euclidean-BF, then Hamming-BF, with shard 1 of 3 slower than the
// deadline: Index.Do must return the merge of the two shards that
// answered and say so truthfully, while the same strategy's healthy twin
// — named explicitly through Query.Backend, under the same deadline —
// answers completely.
func TestDoStrategyUnderDeadline(t *testing.T) {
	Register()
	ds := traj2hash.BuildDataset(traj2hash.Porto(), traj2hash.SplitSpec{
		Seed: 10, Validation: 6, Corpus: 30, Queries: 2, Database: 60,
	}, 9)
	enc, err := traj2hash.NewEncoder(traj2hash.EncoderGeoPTH, traj2hash.DefaultConfig(16), ds.All())
	if err != nil {
		t.Fatal(err)
	}
	const shards, slow, k = 3, 1, 6
	for _, inner := range []string{traj2hash.BackendEuclideanBF, traj2hash.BackendHammingBF} {
		prev := SetDefault(&Faults{Inner: inner, SleepOn: map[int]time.Duration{slow: 2 * time.Second}})
		ix, err := traj2hash.NewIndexWith(enc, ds.Database, traj2hash.Options{Backend: BackendName, Shards: shards})
		SetDefault(prev)
		if err != nil {
			t.Fatal(err)
		}
		emb := enc.Embed(ds.Queries[0])

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		healthy, hst := ix.Do(ctx, traj2hash.Query{Vec: emb, K: len(ds.Database), Backend: inner})
		got, st := ix.Do(ctx, traj2hash.Query{Vec: emb, K: k, Backend: BackendName})
		cancel()
		if !hst.Complete || hst.ShardsOK != shards || len(healthy) != len(ds.Database) {
			t.Fatalf("%s healthy under the deadline: %d results, %+v", inner, len(healthy), hst)
		}
		if st.Complete || st.ShardsOK != shards-1 || st.ShardsFailed != 0 || !errors.Is(st.Err, context.DeadlineExceeded) {
			t.Fatalf("%s with a slow shard: status %+v, want incomplete, %d shards ok, DeadlineExceeded", inner, st, shards-1)
		}
		// The partial answer is exactly the full ranking minus the slow
		// shard's items (ids are dealt round-robin: shard = id mod shards).
		var want []traj2hash.Result
		for _, r := range healthy {
			if r.ID%shards != slow && len(want) < k {
				want = append(want, r)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s partial answer:\n got %v\nwant %v", inner, got, want)
		}
	}
}
