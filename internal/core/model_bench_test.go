package core

import (
	"math"
	"testing"
)

// TestEmbedAllMatchesEmbed checks that the flat-backed batch path
// produces exactly the per-trajectory Embed vectors.
func TestEmbedAllMatchesEmbed(t *testing.T) {
	trajs := genTrajs(6, 41)
	m, err := New(tinyConfig(), trajs)
	if err != nil {
		t.Fatal(err)
	}
	got := m.EmbedAll(trajs)
	if len(got) != len(trajs) {
		t.Fatalf("got %d vectors, want %d", len(got), len(trajs))
	}
	for i, tr := range trajs {
		want := m.Embed(tr)
		if len(got[i]) != len(want) {
			t.Fatalf("vector %d: got %d dims, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if math.Abs(got[i][j]-want[j]) > 1e-12 {
				t.Fatalf("vector %d dim %d: got %v, want %v", i, j, got[i][j], want[j])
			}
		}
	}
}

// BenchmarkHotpathEmbedAll measures batch embedding end to end at
// tinyConfig. The batch shares one flat backing array and one Scratch, so
// allocs/op is the handful of scratch chunks of the first pass plus the
// per-trajectory heap work outside internal/nn (resampling, reversal, the
// grid channel's frozen-table lookups) — locked in by
// scripts/hotpath_floors.json.
func BenchmarkHotpathEmbedAll(b *testing.B) {
	trajs := genTrajs(8, 43)
	m, err := New(tinyConfig(), trajs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EmbedAll(trajs)
	}
}

// BenchmarkHotpathEmbedAttention64 measures one attention Embed at the
// paper's shape (d = 64, 2 blocks, 4 heads, MaxLen 48) — the query cost
// the serving path pays, which tinyConfig understates by ~30×.
func BenchmarkHotpathEmbedAttention64(b *testing.B) {
	cfg := paperShapeConfig()
	trajs := genTrajs(8, 44)
	m, err := New(cfg, trajs)
	if err != nil {
		b.Fatal(err)
	}
	qs := lengthProbes(b, trajs, 2*cfg.MaxLen, 2*cfg.MaxLen, cfg.MaxLen, cfg.MaxLen/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Embed(qs[i%len(qs)])
	}
}
