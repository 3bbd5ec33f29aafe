package core

import (
	"encoding/json"
	"os"
	"testing"

	"traj2hash/internal/geo"
)

// benchWorkload is the fixed query set the encoder benchmarks embed.
func benchWorkload(tb testing.TB) []geo.Trajectory {
	tb.Helper()
	return genTrajs(32, 17)
}

// benchEncoder builds one encoder of the given kind on the benchmark
// study space (untrained: training changes parameter values, not the
// arithmetic, so embed/hash throughput is representative).
func benchEncoder(tb testing.TB, kind string) Encoder {
	tb.Helper()
	enc, err := NewEncoder(kind, tinyConfig(), genTrajs(40, 7))
	if err != nil {
		tb.Fatalf("NewEncoder(%q): %v", kind, err)
	}
	return enc
}

func BenchmarkEncoderEmbed(b *testing.B) {
	qs := benchWorkload(b)
	for _, kind := range EncoderKinds() {
		enc := benchEncoder(b, kind)
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enc.Embed(qs[i%len(qs)])
			}
		})
	}
}

func BenchmarkEncoderCode(b *testing.B) {
	qs := benchWorkload(b)
	for _, kind := range EncoderKinds() {
		enc := benchEncoder(b, kind)
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enc.Code(qs[i%len(qs)])
			}
		})
	}
}

func BenchmarkEncoderEmbedAllParallel(b *testing.B) {
	qs := benchWorkload(b)
	for _, kind := range EncoderKinds() {
		enc := benchEncoder(b, kind)
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enc.EmbedAllParallel(qs, 0)
			}
		})
	}
}

// encoderBenchRecord is one row of the BENCH_encoders.json artifact.
type encoderBenchRecord struct {
	Encoder     string  `json:"encoder"`
	Op          string  `json:"op"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestEncoderBenchArtifact measures each encoder's embed and hash cost
// with testing.Benchmark and writes the BENCH_encoders.json artifact to
// the path named by BENCH_ENCODERS_OUT (see scripts/ci.sh). A no-op when
// the variable is unset, so ordinary `go test` runs stay fast and leave
// no files behind (the artifact path must lie outside this package — the
// residue guard in TestMain fails the run otherwise).
func TestEncoderBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_ENCODERS_OUT")
	if path == "" {
		t.Skip("BENCH_ENCODERS_OUT not set; skipping the benchmark artifact")
	}
	qs := benchWorkload(t)
	var records []encoderBenchRecord
	for _, kind := range EncoderKinds() {
		enc := benchEncoder(t, kind)
		for _, op := range []struct {
			name string
			run  func(i int)
		}{
			{"embed", func(i int) { enc.Embed(qs[i%len(qs)]) }},
			{"code", func(i int) { enc.Code(qs[i%len(qs)]) }},
		} {
			run := op.run
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run(i)
				}
			})
			ns := float64(r.NsPerOp())
			rec := encoderBenchRecord{
				Encoder:     kind,
				Op:          op.name,
				NsPerOp:     ns,
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			if ns > 0 {
				rec.OpsPerSec = 1e9 / ns
			}
			records = append(records, rec)
			t.Logf("%s/%s: %.0f ns/op, %d allocs/op", kind, op.name, ns, r.AllocsPerOp())
		}
	}
	out, err := os.Create(path)
	if err != nil {
		t.Fatalf("bench artifact: %v", err)
	}
	encJSON := json.NewEncoder(out)
	encJSON.SetIndent("", "  ")
	if err := encJSON.Encode(map[string]any{"benchmarks": records}); err != nil {
		out.Close()
		t.Fatalf("bench artifact: %v", err)
	}
	if err := out.Close(); err != nil {
		t.Fatalf("bench artifact: %v", err)
	}
}
