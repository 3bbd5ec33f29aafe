package wal

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"

	"traj2hash/internal/hamming"
)

// Item is one live item in a snapshot: its original global id and the
// full representation replay needs to rebuild every index layer.
type Item struct {
	ID   int
	Emb  []float64
	Code hamming.Code
	Traj []float64
}

// State is a point-in-time image of the index: the next id the engine
// will assign and the live items in ascending id order. Ids missing from
// the sequence are deleted — tombstones are represented by absence, so a
// snapshot's size is proportional to the live set, not the mutation
// history.
type State struct {
	Next  int
	Items []Item
}

// saveSnapshot writes state atomically: gob-encode into a temp file in
// the same directory, fsync it, rename over path, and sync the parent
// directory — the checkpoint discipline (internal/core
// SaveCheckpointFile) that guarantees a crash at any point leaves either
// the old complete snapshot or the new complete snapshot, never a torn
// one. The temp name is fixed (single-writer store, serialized by the
// Store mutex), which keeps the fault-injection schedule deterministic.
func saveSnapshot(fs VFS, path string, s *State) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		//lint:ignore errcheck the write error takes precedence over the cleanup close
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		//lint:ignore errcheck the sync error takes precedence over the cleanup close
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// loadSnapshot reads and decodes a snapshot image. The caller handles
// os.ErrNotExist from the read as "no snapshot yet".
func loadSnapshot(fs VFS, path string) (*State, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s State
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("wal: decoding snapshot %s: %w", path, err)
	}
	return &s, nil
}
