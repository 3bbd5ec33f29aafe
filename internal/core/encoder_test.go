package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
)

// newTestEncoder builds one encoder of each registered kind on the shared
// tiny fixture space.
func newTestEncoder(t *testing.T, kind string) Encoder {
	t.Helper()
	cfg := tinyConfig()
	space := genTrajs(40, 7)
	enc, err := NewEncoder(kind, cfg, space)
	if err != nil {
		t.Fatalf("NewEncoder(%q): %v", kind, err)
	}
	return enc
}

func TestEncoderRegistry(t *testing.T) {
	kinds := EncoderKinds()
	want := []string{AttentionKind, CNNKind, GeoPTHKind}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("EncoderKinds() = %v, want %v", kinds, want)
	}
	for _, kind := range want {
		if err := ResolveEncoderKind(kind); err != nil {
			t.Errorf("ResolveEncoderKind(%q) = %v", kind, err)
		}
	}
	if err := ResolveEncoderKind("no-such-encoder"); err == nil {
		t.Error("unknown encoder kind resolved")
	}
	if _, err := NewEncoder("no-such-encoder", tinyConfig(), genTrajs(4, 1)); err == nil {
		t.Error("NewEncoder accepted an unknown kind")
	}
}

// TestEncoderContract is the cross-encoder contract test: every
// registered encoder must honor the Encoder interface contract the
// doc comment states.
func TestEncoderContract(t *testing.T) {
	for _, kind := range EncoderKinds() {
		t.Run(kind, func(t *testing.T) {
			enc := newTestEncoder(t, kind)
			cfg := tinyConfig()
			if enc.Kind() != kind {
				t.Errorf("Kind() = %q, want %q", enc.Kind(), kind)
			}
			if enc.Dim() != cfg.HashBits {
				t.Errorf("Dim() = %d, want HashBits = %d", enc.Dim(), cfg.HashBits)
			}
			ts := genTrajs(12, 9)

			// Embed: deterministic, Dim() wide.
			for _, tr := range ts {
				e1 := enc.Embed(tr)
				e2 := enc.Embed(tr)
				if len(e1) != enc.Dim() {
					t.Fatalf("Embed returned %d values, want %d", len(e1), enc.Dim())
				}
				if !reflect.DeepEqual(e1, e2) {
					t.Fatal("Embed is not deterministic")
				}
				// Code = sign(Embed), code length = configured bits.
				c := enc.Code(tr)
				if c.Bits != cfg.HashBits {
					t.Fatalf("Code has %d bits, want %d", c.Bits, cfg.HashBits)
				}
				if !reflect.DeepEqual(c, hamming.FromSigns(e1)) {
					t.Fatal("Code(t) != sign(Embed(t))")
				}
			}

			// Batch forms agree with the per-trajectory forms.
			seq := enc.EmbedAll(ts)
			for i, tr := range ts {
				if !reflect.DeepEqual(seq[i], enc.Embed(tr)) {
					t.Fatalf("EmbedAll[%d] != Embed", i)
				}
			}
			par := enc.EmbedAllParallel(ts, 4)
			if !reflect.DeepEqual(par, seq) {
				t.Error("EmbedAllParallel != EmbedAll")
			}
			codes := enc.CodeAll(ts)
			for i, tr := range ts {
				if !reflect.DeepEqual(codes[i], enc.Code(tr)) {
					t.Fatalf("CodeAll[%d] != Code", i)
				}
			}
		})
	}
}

// TestEncoderSaveLoadRoundTrip checks the kind-tagged container: every
// built-in encoder serializes and loads back to identical embeddings.
func TestEncoderSaveLoadRoundTrip(t *testing.T) {
	for _, kind := range EncoderKinds() {
		t.Run(kind, func(t *testing.T) {
			enc := newTestEncoder(t, kind)
			var buf bytes.Buffer
			if err := SaveEncoder(&buf, enc); err != nil {
				t.Fatal(err)
			}
			got, err := LoadEncoder(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind() != kind {
				t.Fatalf("loaded kind %q, want %q", got.Kind(), kind)
			}
			ts := genTrajs(6, 11)
			if !reflect.DeepEqual(got.EmbedAll(ts), enc.EmbedAll(ts)) {
				t.Error("embeddings changed across a save/load round trip")
			}
		})
	}
}

// TestSaveEncoderDeterministic: for every registered kind, two encoders
// built independently from the same config and seeded space must save to
// identical container bytes.
func TestSaveEncoderDeterministic(t *testing.T) {
	for _, kind := range EncoderKinds() {
		t.Run(kind, func(t *testing.T) {
			var saved [2][]byte
			for i := range saved {
				var buf bytes.Buffer
				if err := SaveEncoder(&buf, newTestEncoder(t, kind)); err != nil {
					t.Fatal(err)
				}
				saved[i] = buf.Bytes()
			}
			if !bytes.Equal(saved[0], saved[1]) {
				t.Fatalf("two independently-built encoders saved to different bytes (%d vs %d)", len(saved[0]), len(saved[1]))
			}
		})
	}
}

// TestLoadEncoderFile checks the file entry point: the container format
// round-trips, and anything else — a bare attention payload from
// Model.Save included — fails with one error naming the expected format.
func TestLoadEncoderFile(t *testing.T) {
	cfg := tinyConfig()
	space := genTrajs(40, 7)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	var payload bytes.Buffer
	if err := m.Save(&payload); err != nil {
		t.Fatal(err)
	}
	raw := filepath.Join(dir, "raw.gob")
	if err := os.WriteFile(raw, payload.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEncoderFile(raw); err == nil || !strings.Contains(err.Error(), "not an encoder container") {
		t.Fatalf("raw model file: err %v, want the not-a-container error", err)
	}
	ts := genTrajs(6, 11)

	// And the container format through the same entry point.
	modern := filepath.Join(dir, "modern.enc")
	if err := SaveEncoderFile(modern, m); err != nil {
		t.Fatal(err)
	}
	enc2, err := LoadEncoderFile(modern)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enc2.EmbedAll(ts), m.EmbedAll(ts)) {
		t.Error("container load changed embeddings")
	}

	if _, err := LoadEncoderFile(filepath.Join(dir, "missing.enc")); err == nil {
		t.Error("missing file loaded")
	}
}

// unsaveableEncoder hides its encoder's Save, so SaveEncoder refuses it
// before writing a byte.
type unsaveableEncoder struct{ Encoder }

// tornSaveEncoder's Save fails after writing part of its payload.
type tornSaveEncoder struct{ Encoder }

func (tornSaveEncoder) Save(w io.Writer) error {
	if _, err := w.Write([]byte("torn")); err != nil {
		return err
	}
	return errors.New("disk full")
}

// TestSaveEncoderFileFailureKeepsOldFile: a save that fails returns its
// error and leaves the model file that was at the path loadable and
// unchanged, with no temp file beside it.
func TestSaveEncoderFileFailureKeepsOldFile(t *testing.T) {
	enc := newTestEncoder(t, GeoPTHKind)
	for _, tc := range []struct {
		name string
		bad  Encoder
	}{
		{"not serializable", unsaveableEncoder{enc}},
		{"encoder Save fails", tornSaveEncoder{enc}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "model.enc")
			if err := SaveEncoderFile(path, enc); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveEncoderFile(path, tc.bad); err == nil {
				t.Fatal("failed save returned nil")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatalf("failed save changed the file: %d bytes, was %d", len(after), len(before))
			}
			loaded, err := LoadEncoderFile(path)
			if err != nil {
				t.Fatalf("old file no longer loads: %v", err)
			}
			ts := genTrajs(6, 11)
			if !reflect.DeepEqual(loaded.EmbedAll(ts), enc.EmbedAll(ts)) {
				t.Error("old file loads a different encoder")
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				var names []string
				for _, e := range ents {
					names = append(names, e.Name())
				}
				t.Errorf("directory holds %v; want only model.enc", names)
			}
		})
	}
}

// TestGeoPTHIsTrainingFree pins the design decision that the prototype
// hasher has no training loop: it must not satisfy Trainable, and an
// index over it is usable immediately after construction.
func TestGeoPTHIsTrainingFree(t *testing.T) {
	enc := newTestEncoder(t, GeoPTHKind)
	if _, ok := enc.(Trainable); ok {
		t.Fatal("GeoPTH must not implement Trainable")
	}
	// Codes are usable straight away and not degenerate: two far-apart
	// fixture trajectories should not collide on every bit with
	// everything else.
	ts := genTrajs(12, 13)
	codes := enc.CodeAll(ts)
	distinct := false
	for i := 1; i < len(codes); i++ {
		if hamming.Distance(codes[0], codes[i]) > 0 {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("all geopth codes identical; prototype hashing is degenerate")
	}
}

// TestGeoPTHOutputsPinned pins every Embed bit and Code word of a GeoPTH
// hasher over a fixed corpus to the values recorded under the plain
// Hausdorff double loop: every shortcut dist.Hausdorff has taken since
// is exact, so neither hash may ever move. Both shapes matter —
// tinyConfig resamples to 12 points, the 64-bit default to 24.
func TestGeoPTHOutputsPinned(t *testing.T) {
	for _, tc := range []struct {
		name                string
		cfg                 Config
		wantEmbed, wantCode uint64
	}{
		{"tiny", tinyConfig(), 0x77da7a506b0cc772, 0x52359da8d2763c0d},
		{"default64", DefaultConfig(64), 0xa70e30e241790bf5, 0x96a31e69525df877},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := NewGeoPTH(tc.cfg, genTrajs(80, 7))
			if err != nil {
				t.Fatal(err)
			}
			embeds, codes := fnv.New64a(), fnv.New64a()
			var buf [8]byte
			for _, tr := range genTrajs(60, 21) {
				for _, v := range enc.Embed(tr) {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					embeds.Write(buf[:])
				}
				for _, w := range enc.Code(tr).Words {
					binary.LittleEndian.PutUint64(buf[:], w)
					codes.Write(buf[:])
				}
			}
			if got := embeds.Sum64(); got != tc.wantEmbed {
				t.Errorf("FNV-64a of Embed bits = %#x, want %#x", got, tc.wantEmbed)
			}
			if got := codes.Sum64(); got != tc.wantCode {
				t.Errorf("FNV-64a of Code words = %#x, want %#x", got, tc.wantCode)
			}
		})
	}
}

// TestLoadGeoPTHRejectsUnusableBlobs: a saved hasher with an empty or
// non-finite prototype, or a scale that is not a positive finite number,
// would embed every trajectory to NaN; loading it must fail instead.
func TestLoadGeoPTHRejectsUnusableBlobs(t *testing.T) {
	good, err := NewGeoPTH(tinyConfig(), genTrajs(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	load := func(edit func(*geopthBlob)) error {
		blob := geopthBlob{
			Cfg:    good.Cfg,
			ProtoA: append([]geo.Trajectory(nil), good.protoA...),
			ProtoB: append([]geo.Trajectory(nil), good.protoB...),
			Scale:  good.scale,
		}
		edit(&blob)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		_, err := loadGeoPTH(&buf)
		return err
	}
	if err := load(func(*geopthBlob) {}); err != nil {
		t.Fatalf("an unedited blob must load: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*geopthBlob)
	}{
		{"empty prototype", func(b *geopthBlob) { b.ProtoB[3] = geo.Trajectory{} }},
		{"NaN prototype point", func(b *geopthBlob) {
			b.ProtoA[1] = append(geo.Trajectory{{X: math.NaN(), Y: 1}}, b.ProtoA[1]...)
		}},
		{"infinite prototype point", func(b *geopthBlob) {
			b.ProtoB[0] = append(geo.Trajectory{{X: 1, Y: math.Inf(-1)}}, b.ProtoB[0]...)
		}},
		{"zero scale", func(b *geopthBlob) { b.Scale = 0 }},
		{"negative scale", func(b *geopthBlob) { b.Scale = -1 }},
		{"NaN scale", func(b *geopthBlob) { b.Scale = math.NaN() }},
		{"infinite scale", func(b *geopthBlob) { b.Scale = math.Inf(1) }},
	} {
		if err := load(tc.edit); err == nil {
			t.Errorf("%s: loadGeoPTH accepted the blob", tc.name)
		}
	}
}

// TestCNNTrainable pins that the CNN encoder satisfies the exported
// Trainable seam and that a short training run completes with finite
// history through the generic training loop.
func TestCNNTrainable(t *testing.T) {
	cfg, space, td := trainFixture(t)
	cfg.Epochs = 2
	enc, err := NewEncoder(CNNKind, cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := enc.(Trainable)
	if !ok {
		t.Fatal("CNN encoder must implement Trainable")
	}
	h, err := tr.Train(td)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.EpochLoss) != cfg.Epochs {
		t.Fatalf("trained %d epochs, want %d", len(h.EpochLoss), cfg.Epochs)
	}
	if paramsNonFinite(tr.Params()) {
		t.Error("CNN training produced non-finite parameters")
	}
}

// TestV1CheckpointBitwiseResume is the checkpoint-compat regression test:
// testdata/checkpoint_v1.ckpt was written by the pre-refactor (version-1)
// code at the epoch-2 boundary of the shared trainFixture run. Loading it
// must succeed with an empty Kind, and resuming from it must finish
// bitwise identical to an uninterrupted run of the refactored code.
func TestV1CheckpointBitwiseResume(t *testing.T) {
	ck, err := LoadCheckpointFile(filepath.Join("testdata", "checkpoint_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != 1 {
		t.Fatalf("fixture version %d, want 1", ck.Version)
	}
	if ck.Kind != "" {
		t.Fatalf("v1 fixture has kind %q, want empty (pre-interface format)", ck.Kind)
	}
	if ck.Epoch != 2 {
		t.Fatalf("fixture epoch %d, want 2", ck.Epoch)
	}

	cfg, space, td := trainFixture(t)

	// Uninterrupted reference run under the refactored loop.
	m1, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := m1.Train(td)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh model resumed from the v1 on-disk checkpoint.
	m2, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	td2 := td
	td2.Resume = ck
	h2, err := m2.Train(td2)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(paramBits(m1), paramBits(m2)) {
		t.Error("resume from the v1 checkpoint is not bitwise identical to an uninterrupted run")
	}
	if !reflect.DeepEqual(h1.EpochLoss, h2.EpochLoss) {
		t.Errorf("epoch losses diverged:\nfull   %v\nv1 res %v", h1.EpochLoss, h2.EpochLoss)
	}
	if !reflect.DeepEqual(h1.ValHR10, h2.ValHR10) {
		t.Errorf("validation history diverged:\nfull   %v\nv1 res %v", h1.ValHR10, h2.ValHR10)
	}
}

// TestCheckpointRecordsEncoderKind pins the version-2 header: checkpoints
// written now carry the encoder kind and config.
func TestCheckpointRecordsEncoderKind(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	var last *Checkpoint
	td.CheckpointEvery = 1
	td.OnCheckpoint = func(c *Checkpoint) error { last = c; return nil }
	if _, err := m.Train(td); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint emitted")
	}
	if last.Version != CheckpointVersion {
		t.Errorf("checkpoint version %d, want %d", last.Version, CheckpointVersion)
	}
	if last.Kind != AttentionKind {
		t.Errorf("checkpoint kind %q, want %q", last.Kind, AttentionKind)
	}
	if last.Cfg.HashBits != cfg.HashBits {
		t.Errorf("checkpoint Cfg.HashBits = %d, want %d", last.Cfg.HashBits, cfg.HashBits)
	}
}

// TestResumeRejectsEncoderKindMismatch: resuming an attention-model
// checkpoint into the CNN encoder must fail with ErrEncoderMismatch, not
// a shape-mismatch lottery.
func TestResumeRejectsEncoderKindMismatch(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	var last *Checkpoint
	td.CheckpointEvery = 1
	td.OnCheckpoint = func(c *Checkpoint) error { last = c; return nil }
	if _, err := m.Train(td); err != nil {
		t.Fatal(err)
	}

	cnn, err := NewCNN(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	td2 := td
	td2.Resume = last
	_, err = cnn.Train(td2)
	if err == nil {
		t.Fatal("CNN resumed from an attention checkpoint")
	}
	if !errors.Is(err, ErrEncoderMismatch) {
		t.Errorf("error %v does not wrap ErrEncoderMismatch", err)
	}
}
