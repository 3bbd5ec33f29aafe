package wal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"traj2hash/internal/hamming"
	"traj2hash/internal/obs"
)

// sampleRecords is a mix of every op shape: full add, bare delete,
// update without a trajectory, and an add with negative/NaN-free floats.
func sampleRecords() []Record {
	return []Record{
		{Op: OpAdd, ID: 0, Emb: []float64{1.5, -2.25, 0}, Code: hamming.Code{Bits: 3, Words: []uint64{0b101}}, Traj: []float64{1, 2, 3, 4}},
		{Op: OpDelete, ID: 0},
		{Op: OpAdd, ID: 1, Emb: []float64{math.Pi}, Code: hamming.Code{Bits: 1, Words: []uint64{1}}},
		{Op: OpUpdate, ID: 1, Emb: []float64{-math.SqrtPi}, Code: hamming.Code{Bits: 1, Words: []uint64{0}}, Traj: []float64{9, 9}},
	}
}

func TestRecordFramingRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data := append([]byte(nil), magic...)
	for _, r := range recs {
		data = appendRecord(data, r)
	}
	parsed, err := parseLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Torn {
		t.Fatal("intact log reported torn")
	}
	if parsed.Valid != int64(len(data)) {
		t.Fatalf("valid prefix %d, want %d", parsed.Valid, len(data))
	}
	if !reflect.DeepEqual(parsed.Records, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", parsed.Records, recs)
	}
}

// TestCorruptedTailCRC flips one payload byte of the final record: the
// checksum must reject it as a torn tail while the prefix survives.
func TestCorruptedTailCRC(t *testing.T) {
	data := append([]byte(nil), magic...)
	data = appendRecord(data, sampleRecords()[0])
	intact := int64(len(data))
	data = appendRecord(data, sampleRecords()[2])
	data[len(data)-1] ^= 0xFF
	parsed, err := parseLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Torn || parsed.Valid != intact || len(parsed.Records) != 1 {
		t.Fatalf("corrupt tail: torn=%v valid=%d records=%d, want true/%d/1", parsed.Torn, parsed.Valid, len(parsed.Records), intact)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := parseLog([]byte("NOPE-this-is-not-a-log")); err == nil {
		t.Fatal("foreign file accepted as a log")
	}
	parsed, err := parseLog([]byte("TW")) // torn mid-magic: valid prefix empty
	if err != nil || !parsed.Torn || parsed.Valid != 0 {
		t.Fatalf("short magic: parsed=%+v err=%v, want torn with empty prefix", parsed, err)
	}
}

// TestStoreRoundTrip drives the full protocol on a real directory:
// append → snapshot → append → close → reopen, asserting the recovered
// snapshot and tail plus the counters the obs registry accumulated.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	open := func() (*Store, *Recovered) {
		t.Helper()
		s, rec, err := Open(Options{Dir: dir, Metrics: reg, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s, rec
	}
	s, rec := open()
	if rec.Snapshot != nil || len(rec.Tail) != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	recs := sampleRecords()
	for _, r := range recs[:2] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	state := &State{Next: 1, Items: []Item{{ID: 0, Emb: []float64{1.5}, Code: hamming.Code{Bits: 1, Words: []uint64{1}}, Traj: []float64{1, 2}}}}
	if err := s.WriteSnapshot(state); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[2:] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := open()
	defer func() {
		s2.Close()
	}()
	if rec2.Snapshot == nil || !reflect.DeepEqual(rec2.Snapshot, state) {
		t.Fatalf("recovered snapshot %+v, want %+v", rec2.Snapshot, state)
	}
	if !reflect.DeepEqual(rec2.Tail, recs[2:]) {
		t.Fatalf("recovered tail %+v, want %+v", rec2.Tail, recs[2:])
	}
	if rec2.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	if got := counter("wal.appends"); got != 4 {
		t.Fatalf("wal.appends = %d, want 4", got)
	}
	if got := counter("wal.snapshots"); got != 1 {
		t.Fatalf("wal.snapshots = %d, want 1", got)
	}
	if got := counter("wal.recoveries"); got != 1 {
		t.Fatalf("wal.recoveries = %d, want 1 (only the second open saw prior state)", got)
	}
	if got := counter("wal.torn_tails"); got != 0 {
		t.Fatalf("wal.torn_tails = %d, want 0", got)
	}
	if counter("wal.fsyncs") < 4 {
		t.Fatalf("wal.fsyncs = %d, want >= 4 (SyncEvery default 1)", counter("wal.fsyncs"))
	}
}

// TestStoreTornTailRecovery crashes "mid-append" by hand: bytes are
// chopped off the log file between two opens. Recovery must surface the
// intact records, report and count the torn tail, and truncate the file
// so the NEXT recovery is clean.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	s, _, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, LogName)
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail {
		t.Fatal("chopped log not reported torn")
	}
	if !reflect.DeepEqual(rec.Tail, recs[:3]) {
		t.Fatalf("recovered tail %+v, want first 3 records", rec.Tail)
	}
	if got := reg.Counter("wal.torn_tails").Value(); got != 1 {
		t.Fatalf("wal.torn_tails = %d, want 1", got)
	}
	// The torn bytes are gone from disk: append after recovery, reopen,
	// and the log parses clean.
	if err := s2.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, rec3, err := Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s3.Close()
	}()
	if rec3.TornTail {
		t.Fatal("recovered-then-appended log still torn")
	}
	want := append(append([]Record(nil), recs[:3]...), recs[3])
	if !reflect.DeepEqual(rec3.Tail, want) {
		t.Fatalf("final tail %+v, want %+v", rec3.Tail, want)
	}
}

// TestGroupFsync: with SyncEvery=3, appends batch their fsyncs and Sync
// flushes the remainder.
func TestGroupFsync(t *testing.T) {
	reg := obs.New()
	s, _, err := Open(Options{Dir: t.TempDir(), Metrics: reg, SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
	}()
	base := reg.Counter("wal.fsyncs").Value() // the magic-header sync
	for i := 0; i < 7; i++ {
		if err := s.Append(Record{Op: OpDelete, ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("wal.fsyncs").Value() - base; got != 2 {
		t.Fatalf("fsyncs after 7 appends at SyncEvery=3: %d, want 2", got)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("wal.fsyncs").Value() - base; got != 3 {
		t.Fatalf("fsyncs after explicit Sync: %d, want 3", got)
	}
}

// TestAppendBatchWritesTheSameBytes: a group leaves the log image its
// records would have left appended one by one — so parseLog, the fuzz
// corpora and the bytes-per-record figures are untouched by grouping.
func TestAppendBatchWritesTheSameBytes(t *testing.T) {
	recs := append(sampleRecords(), benchRecord(7), benchRecord(8))
	image := func(write func(*Store) error) []byte {
		t.Helper()
		dir := t.TempDir()
		s, _, err := Open(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := write(s); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, LogName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	single := image(func(s *Store) error {
		for _, r := range recs {
			if err := s.Append(r); err != nil {
				return err
			}
		}
		return nil
	})
	grouped := image(func(s *Store) error { return s.AppendBatch(recs) })
	split := image(func(s *Store) error {
		if err := s.AppendBatch(recs[:2]); err != nil {
			return err
		}
		if err := s.AppendBatch(nil); err != nil { // an empty group writes nothing
			return err
		}
		return s.AppendBatch(recs[2:])
	})
	if !bytes.Equal(grouped, single) || !bytes.Equal(split, single) {
		t.Fatalf("log images differ: %d bytes appended singly, %d as one group, %d as two", len(single), len(grouped), len(split))
	}
	want := len(magic)
	for _, r := range recs {
		want += r.FrameLen()
	}
	if len(single) != want {
		t.Fatalf("log is %d bytes, FrameLen sums to %d", len(single), want)
	}
}

// TestTornTailDetection cuts an intact log at every byte offset — a crash
// may cut a group's single write anywhere, not only inside the final
// record. Every cut parses to exactly the whole frames before it, torn
// unless it falls on a frame boundary — never an error, never a phantom
// record.
func TestTornTailDetection(t *testing.T) {
	recs := sampleRecords()
	data := append([]byte(nil), magic...)
	ends := []int{len(data)} // ends[i]: offset behind the i-th frame
	for _, r := range recs {
		data = appendRecord(data, r)
		ends = append(ends, len(data))
	}
	whole := 0
	for cut := len(magic); cut <= len(data); cut++ {
		if cut == ends[whole+1] {
			whole++
		}
		parsed, err := parseLog(data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(parsed.Records) != whole || parsed.Valid != int64(ends[whole]) || parsed.Torn != (cut != ends[whole]) {
			t.Fatalf("cut at %d: %d records, valid %d, torn %v; want %d, %d, %v",
				cut, len(parsed.Records), parsed.Valid, parsed.Torn, whole, ends[whole], cut != ends[whole])
		}
		if whole > 0 && !reflect.DeepEqual(parsed.Records, recs[:whole]) {
			t.Fatalf("cut at %d: records %+v, want the first %d", cut, parsed.Records, whole)
		}
	}
}

// TestGroupFsyncCountsRecordsOfAGroup: the group-fsync rule is applied
// once per write, to the records pending behind it — a group that carries
// the count across SyncEvery is synced once and leaves nothing pending.
func TestGroupFsyncCountsRecordsOfAGroup(t *testing.T) {
	reg := obs.New()
	s, _, err := Open(Options{Dir: t.TempDir(), Metrics: reg, SyncEvery: 64, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
	}()
	fsyncs, appends := reg.Counter("wal.fsyncs"), reg.Counter("wal.appends")
	base := fsyncs.Value() // the magic-header sync
	group := func(n int) []Record {
		rs := make([]Record, n)
		for i := range rs {
			rs[i] = Record{Op: OpDelete, ID: i}
		}
		return rs
	}
	steps := []struct {
		n    int   // records of the next group
		want int64 // fsyncs so far
	}{
		{60, 0}, // 60 pending
		{10, 1}, // 70 >= 64: one fsync for the whole group, 0 pending
		{63, 1}, // 63 pending
		{1, 2},  // 64
		{200, 3},
	}
	total := int64(0)
	for i, st := range steps {
		if err := s.AppendBatch(group(st.n)); err != nil {
			t.Fatal(err)
		}
		total += int64(st.n)
		if got := fsyncs.Value() - base; got != st.want || appends.Value() != total {
			t.Fatalf("step %d (group of %d): %d fsyncs and %d appends so far, want %d and %d", i, st.n, got, appends.Value(), st.want, total)
		}
	}
}

// TestOversizedGroupBufferIsReleased: the store keeps its encode buffer
// between appends, but not one that a single huge group inflated.
func TestOversizedGroupBufferIsReleased(t *testing.T) {
	s, _, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
	}()
	small := []Record{benchRecord(0), benchRecord(1)}
	if err := s.AppendBatch(small); err != nil {
		t.Fatal(err)
	}
	if cap(s.buf) == 0 || cap(s.buf) > maxRetainedBuf {
		t.Fatalf("after a small group the store holds a %d-byte buffer, want one it reuses", cap(s.buf))
	}
	big := make([]Record, maxRetainedBuf/benchRecord(0).FrameLen()+1)
	for i := range big {
		big[i] = benchRecord(i)
	}
	if err := s.AppendBatch(big); err != nil {
		t.Fatal(err)
	}
	if s.buf != nil {
		t.Fatalf("after a group past maxRetainedBuf the store still holds a %d-byte buffer", cap(s.buf))
	}
	if err := s.Append(small[0]); err != nil {
		t.Fatal(err)
	}
}

// flakyFS is the real filesystem whose log file fails the next write or
// fsync on request and then works again — the faults a process survives.
type flakyFS struct {
	OSFS
	failWrite, failSync bool // fail the next one, once
	writes, syncs       int  // calls that reached the log file
}

var errFlaky = errors.New("flaky: injected I/O error")

func (fs *flakyFS) OpenAppend(path string) (File, error) {
	f, err := fs.OSFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: f, fs: fs}, nil
}

type flakyFile struct {
	File
	fs *flakyFS
}

func (f *flakyFile) Write(p []byte) (int, error) {
	f.fs.writes++
	if f.fs.failWrite {
		f.fs.failWrite = false
		return 0, errFlaky
	}
	return f.File.Write(p)
}

func (f *flakyFile) Sync() error {
	f.fs.syncs++
	if f.fs.failSync {
		f.fs.failSync = false
		return errFlaky
	}
	return f.File.Sync()
}

// TestStoreFailureIsLatched: the first failed write or fsync ends the
// store's life. Before, the next Append wrote behind the partial frame —
// where recovery would truncate it — and a failed fsync was simply tried
// again by the next one, which can report a success the kernel's dropped
// pages do not back.
func TestStoreFailureIsLatched(t *testing.T) {
	for _, fault := range []string{"write", "fsync"} {
		fs := &flakyFS{}
		s, _, err := Open(Options{Dir: t.TempDir(), SnapshotEvery: -1, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		recs := sampleRecords()
		if err := s.Append(recs[0]); err != nil || s.Err() != nil {
			t.Fatalf("%s: healthy append = %v, Err = %v", fault, err, s.Err())
		}
		fs.failWrite, fs.failSync = fault == "write", fault == "fsync"
		err = s.AppendBatch(recs[1:3])
		if !errors.Is(err, ErrFailed) || !errors.Is(err, errFlaky) {
			t.Fatalf("%s: failing append = %v, want ErrFailed wrapping the cause", fault, err)
		}
		writes, syncs := fs.writes, fs.syncs
		for name, call := range map[string]func() error{
			"Append":        func() error { return s.Append(recs[3]) },
			"AppendBatch":   func() error { return s.AppendBatch(recs) },
			"Sync":          s.Sync,
			"WriteSnapshot": func() error { return s.WriteSnapshot(&State{Next: 1}) },
			"Err":           s.Err,
			"Close":         s.Close,
		} {
			if got := call(); !errors.Is(got, ErrFailed) || !errors.Is(got, errFlaky) {
				t.Errorf("%s after a failed %s = %v, want the latched failure", name, fault, got)
			}
		}
		if fs.writes != writes || fs.syncs != syncs {
			t.Errorf("a failed store reached the file again: %d writes, %d fsyncs after the failed %s", fs.writes-writes, fs.syncs-syncs, fault)
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s: second Close = %v, want nil", fault, err)
		}
	}
}

// TestOpenRefusesGobSnapshot: a directory an older build left with a gob
// snapshot must not open as the smaller index its log alone describes.
// Open refuses it, names the older build, and leaves wal.log as it found
// it — not even a torn tail is truncated.
func TestOpenRefusesGobSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, LogName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-3]
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacySnapshotName), corpusBytes(t, "FuzzLoadSnapshot", "seed-valid"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("Open of a directory with a gob snapshot = %v, want a refusal naming the older build", err)
	}
	if got, err := os.ReadFile(logPath); err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("the refused Open changed %s (%d bytes, was %d; err %v)", LogName, len(got), len(torn), err)
	}
}

// benchRecord builds a realistic-sized record: a 64-dim embedding, its
// 64-bit code, and a 30-point trajectory.
func benchRecord(id int) Record {
	emb := make([]float64, 64)
	traj := make([]float64, 60)
	for i := range emb {
		emb[i] = float64(id*31+i) * 0.125
	}
	for i := range traj {
		traj[i] = float64(id*17+i) * 0.5
	}
	return Record{Op: OpAdd, ID: id, Emb: emb, Code: hamming.Code{Bits: 64, Words: []uint64{uint64(id) * 0x9E3779B97F4A7C15}}, Traj: traj}
}

// BenchmarkMutableWALAppend measures the durable-append hot path with
// per-record fsync — the latency every mutation pays when durability is
// configured at its strictest.
func BenchmarkMutableWALAppend(b *testing.B) {
	s, _, err := Open(Options{Dir: b.TempDir(), SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		s.Close()
	}()
	r := benchRecord(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ID = i
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutableWALAppendBatch64 measures the same durable append when
// 64 records share one write and one fsync — the bulk-ingest path. ns/op
// is per group; ns/record is what compares with BenchmarkMutableWALAppend.
func BenchmarkMutableWALAppendBatch64(b *testing.B) {
	s, _, err := Open(Options{Dir: b.TempDir(), SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		s.Close()
	}()
	group := make([]Record, 64)
	for i := range group {
		group[i] = benchRecord(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AppendBatch(group); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(group)), "ns/record")
}

// benchState is the 512-item state the snapshot benchmarks write.
func benchState() *State {
	state := &State{Next: 512}
	for id := 0; id < 512; id++ {
		r := benchRecord(id)
		state.Items = append(state.Items, Item{ID: id, Emb: r.Emb, Code: r.Code, Traj: r.Traj})
	}
	return state
}

// BenchmarkMutableSnapshot measures WriteSnapshot of benchState: the
// encode, the fsynced write and rename of the snapshot, and the log
// reset — what a mutation that falls due for a snapshot waits behind.
func BenchmarkMutableSnapshot(b *testing.B) {
	s, _, err := Open(Options{Dir: b.TempDir(), SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		s.Close()
	}()
	state := benchState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteSnapshot(state); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutableRecovery measures Open on a directory holding a
// snapshot plus a log tail — the restart cost the snapshot cadence
// bounds.
func BenchmarkMutableRecovery(b *testing.B) {
	dir := b.TempDir()
	s, _, err := Open(Options{Dir: dir, SnapshotEvery: -1, SyncEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.WriteSnapshot(benchState()); err != nil {
		b.Fatal(err)
	}
	for id := 512; id < 768; id++ {
		if err := s.Append(benchRecord(id)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, rec, err := Open(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Snapshot.Items) != 512 || len(rec.Tail) != 256 {
			b.Fatalf("recovered %d+%d", len(rec.Snapshot.Items), len(rec.Tail))
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
