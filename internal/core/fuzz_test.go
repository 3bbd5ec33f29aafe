package core

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// fuzzBlob has the field names of nn's gob wire format for one tensor,
// so a test can write tensors whose data does not fit their shape.
type fuzzBlob struct {
	Rows, Cols int
	Data       []float64
}

// rawCheckpoint encodes a checkpoint stream by hand: the header with the
// given shapes, then the four parameter groups, each the same blobs.
func rawCheckpoint(t testing.TB, shapes [][2]int, blobs ...fuzzBlob) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpointMeta{Version: CheckpointVersion, Kind: AttentionKind, Shapes: shapes}); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(len(blobs)); err != nil {
			t.Fatal(err)
		}
		for _, b := range blobs {
			if err := enc.Encode(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestLoadCheckpointRejectsHostileShapes pins the header attacks
// FuzzLoadCheckpoint's corpus starts from: a negative shape (which must
// not reach make), a huge one (which must not be allocated from the
// header), and a blob whose data does not fill its shape (which must not
// load partially). All must be errors, while the same stream written
// well loads.
func TestLoadCheckpointRejectsHostileShapes(t *testing.T) {
	good := rawCheckpoint(t, [][2]int{{2, 3}}, fuzzBlob{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}})
	if _, err := LoadCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatalf("well-formed stream: %v", err)
	}
	for name, raw := range map[string][]byte{
		"negative shape": rawCheckpoint(t, [][2]int{{-1, 5}}, fuzzBlob{Rows: -1, Cols: 5}),
		"huge shape":     rawCheckpoint(t, [][2]int{{1 << 40, 1 << 20}}, fuzzBlob{Rows: 1 << 40, Cols: 1 << 20, Data: []float64{1}}),
		"short blob":     rawCheckpoint(t, [][2]int{{2, 3}}, fuzzBlob{Rows: 2, Cols: 3, Data: []float64{1, 2}}),
		"shape mismatch": rawCheckpoint(t, [][2]int{{2, 3}}, fuzzBlob{Rows: 3, Cols: 2, Data: make([]float64, 6)}),
		"count mismatch": rawCheckpoint(t, [][2]int{{2, 3}, {2, 3}}, fuzzBlob{Rows: 2, Cols: 3, Data: make([]float64, 6)}),
	} {
		if _, err := LoadCheckpoint(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: LoadCheckpoint returned no error", name)
		}
	}
}

// FuzzLoadCheckpoint throws arbitrary bytes at LoadCheckpoint, which reads
// files a crash, a full disk or a hostile peer may have written: it must
// never panic (nor size an allocation from the header alone), and any
// input it accepts must re-save and load back to the same checkpoint —
// compared as the bytes Save writes, so NaNs compare too. The committed
// corpus (testdata/fuzz/FuzzLoadCheckpoint) holds a valid stream, the
// empty input, and the negative-shape, huge-shape and short-blob streams
// of TestLoadCheckpointRejectsHostileShapes.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return // a loud error, never a panic
		}
		var first bytes.Buffer
		if err := c.Save(&first); err != nil {
			t.Fatalf("a loaded checkpoint failed to re-save: %v", err)
		}
		again, err := LoadCheckpoint(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a re-saved checkpoint failed to load: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("a reloaded checkpoint failed to re-save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("a checkpoint changed across save and load")
		}
	})
}

// TestLoadEncoderRejectsHostileConfig pins that a container whose
// attention payload carries a configuration Validate must refuse — the
// Heads = 0 and Heads = -4, Blocks = -1 seeds of FuzzLoadEncoder's corpus —
// loads as an error, not a panic, while the same payload unaltered loads.
func TestLoadEncoderRejectsHostileConfig(t *testing.T) {
	m, err := New(tinyConfig(), genTrajs(20, 7))
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := m.Save(&payload); err != nil {
		t.Fatal(err)
	}
	container := func(mutate func(*Config)) []byte {
		var blob modelBlob
		if err := gob.NewDecoder(bytes.NewReader(payload.Bytes())).Decode(&blob); err != nil {
			t.Fatal(err)
		}
		mutate(&blob.Cfg)
		var raw, out bytes.Buffer
		if err := gob.NewEncoder(&raw).Encode(blob); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&out).Encode(encoderBlob{Kind: AttentionKind, Raw: raw.Bytes()}); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if _, err := LoadEncoder(bytes.NewReader(container(func(*Config) {}))); err != nil {
		t.Fatalf("unaltered container: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero heads", func(c *Config) { c.Heads = 0 }},
		{"negative heads", func(c *Config) { c.Heads = -4 }},
		{"negative blocks", func(c *Config) { c.Blocks = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadEncoder(bytes.NewReader(container(tc.mutate))); err == nil {
				t.Error("LoadEncoder returned no error")
			}
		})
	}
}

// FuzzLoadEncoder throws arbitrary bytes at LoadEncoder, which reads the
// encoder container 'traj2hash train' writes and LoadEncoderFile opens:
// it must never panic, and any input it accepts must save, load and save
// again to the same bytes. The committed corpus
// (testdata/fuzz/FuzzLoadEncoder) holds a tiny container of each kind
// (GeoPTH, attention, CNN), the attention container with Heads = 0 and with
// Heads = -4, Blocks = -1 (configurations Validate once let through to a
// panic) and with a NaN grid origin (once a grid sized from the header,
// and a panic), and the empty input.
func FuzzLoadEncoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, err := LoadEncoder(bytes.NewReader(data))
		if err != nil {
			return // a loud error, never a panic
		}
		var first bytes.Buffer
		if err := SaveEncoder(&first, enc); err != nil {
			t.Fatalf("a loaded encoder failed to re-save: %v", err)
		}
		again, err := LoadEncoder(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a re-saved encoder failed to load: %v", err)
		}
		var second bytes.Buffer
		if err := SaveEncoder(&second, again); err != nil {
			t.Fatalf("a reloaded encoder failed to re-save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("an encoder changed across save and load")
		}
	})
}
