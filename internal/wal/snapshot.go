package wal

import (
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

// opSnapshot is the op of a snapshot's closing frame, whose ID is the
// state's Next. It never appears in the append log.
const opSnapshot Op = 4

// saveSnapshot writes state atomically as a compacted log: the log's
// magic, one OpAdd frame per item and the closing frame, all in the
// append log's frame format. The bytes go into a temp file in the same
// directory, which is fsynced, renamed over path, and the parent
// directory synced — the checkpoint discipline (internal/core
// SaveCheckpointFile) that guarantees a crash at any point leaves either
// the old complete snapshot or the new complete snapshot, never a torn
// one. The temp name is fixed (single-writer store, serialized by the
// Store mutex), which keeps the fault-injection schedule deterministic.
func saveSnapshot(fs VFS, path string, s *State) error {
	closing := Record{Op: opSnapshot, ID: s.Next}
	need := len(magic) + closing.FrameLen()
	for _, it := range s.Items {
		need += Record{Emb: it.Emb, Code: it.Code, Traj: it.Traj}.FrameLen()
	}
	buf := append(make([]byte, 0, need), magic...)
	for _, it := range s.Items {
		buf = appendRecord(buf, Record{Op: OpAdd, ID: it.ID, Emb: it.Emb, Code: it.Code, Traj: it.Traj})
	}
	buf = appendRecord(buf, closing)
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
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

// loadSnapshot reads a snapshot with the log's own parser. The file is
// only ever published by a rename after its fsync, so unlike the log it
// has no torn tail to forgive: a torn or checksum-failing frame, an item
// frame that is not an OpAdd, and a missing closing frame are all
// corruption, reported with the file and the byte offset. The caller
// handles os.ErrNotExist from the read as "no snapshot yet".
func loadSnapshot(fs VFS, path string) (*State, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	parsed, err := parseLog(data)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", path, err)
	}
	if parsed.Torn {
		return nil, fmt.Errorf("wal: snapshot %s: torn or checksum-failing frame at offset %d", path, parsed.Valid)
	}
	s := &State{Items: make([]Item, 0, len(parsed.Records))}
	off := len(magic)
	for i, r := range parsed.Records {
		if i == len(parsed.Records)-1 && isClosing(r) {
			s.Next = r.ID
			return s, nil
		}
		if r.Op != OpAdd {
			return nil, fmt.Errorf("wal: snapshot %s: %s frame at offset %d, want an add", path, r.Op, off)
		}
		s.Items = append(s.Items, Item{ID: r.ID, Emb: r.Emb, Code: r.Code, Traj: r.Traj})
		off += r.FrameLen()
	}
	return nil, fmt.Errorf("wal: snapshot %s: no closing frame at offset %d", path, off)
}

// isClosing reports whether r is a snapshot's closing frame: opSnapshot
// and nothing but the id, so that a loaded state re-saves to its bytes.
func isClosing(r Record) bool {
	return r.Op == opSnapshot && r.Code.Bits == 0 && len(r.Emb)+len(r.Code.Words)+len(r.Traj) == 0
}
