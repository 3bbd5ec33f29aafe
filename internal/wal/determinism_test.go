package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"traj2hash/internal/hamming"
)

// snapState builds a snapshot state from scratch on every call — two
// calls share no memory, so identical encodes can only come from the
// encoding being a pure function of the logical state.
func snapState() *State {
	s := &State{Next: 5}
	for id := 0; id < 5; id++ {
		if id == 2 { // a deleted id: represented by absence
			continue
		}
		emb := []float64{float64(id) + 0.5, -float64(id), 1.25}
		s.Items = append(s.Items, Item{
			ID:   id,
			Emb:  emb,
			Code: hamming.FromSigns(emb),
			Traj: []float64{float64(id), 0, float64(id), 1},
		})
	}
	return s
}

func saveBytes(t *testing.T, path string, s *State) []byte {
	t.Helper()
	if err := saveSnapshot(OSFS{}, path, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotEncodeDeterministic pins the snapshot's byte-identity
// contract: encoding the same logical state must yield identical bytes
// whether the state was built fresh, built fresh a second time, or
// recovered through a WAL replay round-trip. If an unordered structure ever leaks into State, this
// test fails before crash-recovery parity does.
func TestSnapshotEncodeDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := saveBytes(t, filepath.Join(dir, "a.log"), snapState())
	b := saveBytes(t, filepath.Join(dir, "b.log"), snapState())
	if !bytes.Equal(a, b) {
		t.Fatalf("two independently-built states encoded to different bytes (%d vs %d)", len(a), len(b))
	}

	// Decode → re-encode round trip.
	got, err := loadSnapshot(OSFS{}, filepath.Join(dir, "a.log"))
	if err != nil {
		t.Fatal(err)
	}
	c := saveBytes(t, filepath.Join(dir, "c.log"), got)
	if !bytes.Equal(a, c) {
		t.Fatal("decode → re-encode changed the snapshot bytes")
	}

	// WAL replay round trip: persist the state through a Store, crash
	// (close), recover, and re-encode what recovery handed back.
	wdir := filepath.Join(dir, "wal")
	store, _, err := Open(Options{Dir: wdir})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(snapState()); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, rec, err := Open(Options{Dir: wdir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if rec.Snapshot == nil {
		t.Fatal("recovery found no snapshot")
	}
	d := saveBytes(t, filepath.Join(dir, "d.log"), rec.Snapshot)
	if !bytes.Equal(a, d) {
		t.Fatal("snapshot re-encoded after WAL recovery differs from the original encode")
	}
}
