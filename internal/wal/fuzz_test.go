package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"traj2hash/internal/hamming"
)

// fuzzRecord is a representative record for seeding the fuzz corpora:
// every payload section (embedding, code words, trajectory) non-empty.
func fuzzRecord() Record {
	emb := []float64{0.5, -1.25, 3}
	return Record{
		Op:   OpAdd,
		ID:   7,
		Emb:  emb,
		Code: hamming.FromSigns(emb),
		Traj: []float64{0, 0, 1, 1, 2, 4},
	}
}

// FuzzReadFrame throws arbitrary log images at parseLog and checks the
// torn-tail contract that recovery truncation depends on: parsing never
// panics, a clean parse consumes the whole file, and the reported valid
// prefix always re-parses to the same records with no torn flag — if it
// did not, truncating to Valid after a crash could drop or invent
// records. Decoded records must also re-encode byte-identically, which
// is the frame codec's half of the determinism contracts (DESIGN.md
// "Determinism contracts").
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("TWL"))  // crash tore even the magic
	f.Add([]byte("TWL1")) // empty log
	f.Add([]byte("XXXX\x01\x02\x03\x04\x05\x06\x07\x08"))
	valid := appendRecord(append([]byte(nil), magic...), fuzzRecord())
	valid = appendRecord(valid, Record{Op: OpDelete, ID: 7})
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-3]...)) // torn mid-frame
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff // CRC failure on the last frame
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := parseLog(data)
		if err != nil {
			return // bad magic or structural corruption: a loud error, never a panic
		}
		if out.Valid < 0 || out.Valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside file of %d bytes", out.Valid, len(data))
		}
		if !out.Torn && out.Valid != int64(len(data)) {
			t.Fatalf("clean parse left %d unread byte(s)", int64(len(data))-out.Valid)
		}
		// Truncation safety: the valid prefix is what recovery keeps, so
		// it must re-parse cleanly to exactly the records reported now.
		pre, err := parseLog(data[:out.Valid])
		if err != nil {
			t.Fatalf("valid prefix failed to re-parse: %v", err)
		}
		if pre.Torn {
			t.Fatalf("valid prefix of %d bytes re-parsed as torn", out.Valid)
		}
		if pre.Valid != out.Valid || len(pre.Records) != len(out.Records) {
			t.Fatalf("valid prefix re-parse: %d records/%d bytes, want %d/%d",
				len(pre.Records), pre.Valid, len(out.Records), out.Valid)
		}
		// Codec determinism: re-encoding the decoded records must rebuild
		// the valid prefix byte for byte (the framing has one canonical
		// encoding per record).
		buf := append([]byte(nil), magic...)
		for _, r := range out.Records {
			buf = appendRecord(buf, r)
		}
		if out.Valid >= int64(len(magic)) && !bytes.Equal(buf, data[:out.Valid]) {
			t.Fatalf("re-encoding %d decoded record(s) did not reproduce the valid prefix", len(out.Records))
		}
	})
}

// fuzzSnapshot is a valid snapshot image: two items (id 1 deleted) and
// the closing frame carrying Next.
func fuzzSnapshot() []byte {
	emb := []float64{1, -1}
	buf := appendRecord(append([]byte(nil), magic...), Record{Op: OpAdd, ID: 0, Emb: emb, Code: hamming.FromSigns(emb), Traj: []float64{0, 0, 1, 1}})
	buf = appendRecord(buf, Record{Op: OpAdd, ID: 2, Emb: emb, Code: hamming.FromSigns(emb), Traj: []float64{5, 5}})
	return appendRecord(buf, Record{Op: opSnapshot, ID: 3})
}

// FuzzLoadSnapshot throws arbitrary snapshot images at loadSnapshot:
// loading never panics, and a state that loads re-saves to exactly the
// input bytes — the frame codec has one encoding per state, so a file
// that loads is a file this package wrote. The seeds the property alone
// would not hold to an error (a torn file, a CRC flip, a file without its
// closing frame, and the committed corpus file seed-valid, an older
// build's gob snapshot) must be refused.
func FuzzLoadSnapshot(f *testing.F) {
	valid := fuzzSnapshot()
	closing := Record{Op: opSnapshot, ID: 3}.FrameLen()
	flipped := append([]byte(nil), valid...)
	flipped[len(magic)+frameHeader+20] ^= 0x01 // inside the first item's embedding
	dir := f.TempDir()
	path := filepath.Join(dir, SnapshotName)
	load := func(t testing.TB, data []byte) (*State, error) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return loadSnapshot(OSFS{}, path)
	}
	if _, err := load(f, valid); err != nil {
		f.Fatalf("valid snapshot refused: %v", err)
	}
	deleted := appendRecord(valid[:len(valid)-closing:len(valid)-closing], Record{Op: OpDelete, ID: 0})
	deleted = appendRecord(deleted, Record{Op: opSnapshot, ID: 3})
	for name, bad := range map[string][]byte{
		"torn":     valid[:len(valid)-3],
		"unclosed": valid[:len(valid)-closing],
		"crc-flip": flipped,
		"delete":   deleted,
		"gob":      corpusBytes(f, "FuzzLoadSnapshot", "seed-valid"),
	} {
		_, err := load(f, bad)
		if err == nil {
			f.Fatalf("%s snapshot loaded", name)
		}
		if name != "gob" && (!strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "offset")) {
			f.Fatalf("%s snapshot: %v, want an error naming the file and the offset", name, err)
		}
	}
	f.Add(valid)
	f.Add(append([]byte(nil), valid[:len(valid)-3]...))
	f.Add(append([]byte(nil), valid[:len(valid)-closing]...))
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := load(t, data)
		if err != nil {
			return // corruption is an error, never a panic
		}
		if got == nil {
			t.Fatal("loadSnapshot returned nil state with nil error")
		}
		resaved := filepath.Join(dir, "resaved")
		if err := saveSnapshot(OSFS{}, resaved, got); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(resaved)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("a loaded state re-saved to %d bytes that differ from its %d input bytes", len(again), len(data))
		}
	})
}

// corpusBytes reads the input of a committed fuzz corpus file (one
// []byte value in the "go test fuzz v1" encoding).
func corpusBytes(t testing.TB, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s/%s is not a one-[]byte corpus file", target, name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s/%s: %v", target, name, err)
	}
	return []byte(s)
}
