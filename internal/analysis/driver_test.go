package analysis

import (
	"path/filepath"
	"testing"
)

// BenchmarkTrajlintTree measures a whole-module analysis: parse,
// type-check, and every rule, the compiler runs of the perf rules
// included. The sub-benchmark keeps the name "cold" so the
// BENCH_trajlint.json trajectory stays comparable across changes.
func BenchmarkTrajlintTree(b *testing.B) {
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loader, err := NewLoader(moduleDir)
			if err != nil {
				b.Fatal(err)
			}
			d := &Driver{Loader: loader, Rules: Rules()}
			if _, _, err := d.Run([]string{"./..."}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
