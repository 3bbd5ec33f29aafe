package experiments

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"traj2hash/internal/core"
)

// withMicroScale installs the micro test parameters for the duration of a
// test, letting the full experiment drivers run end to end in seconds.
func withMicroScale(t *testing.T) {
	t.Helper()
	p := microParams()
	testParams = &p
	testDBSizes = []int{100, 200, 300, 400, 500}
	oldQ := efficiencyQueries
	efficiencyQueries = 10
	t.Cleanup(func() {
		testParams = nil
		testDBSizes = nil
		efficiencyQueries = oldQ
	})
}

// wallClockColumns are the headers of the cells that hold wall-clock
// measurements. The goldens mask them; every other cell — each accuracy
// figure, step count and hybrid fast-path share — is deterministic at a
// fixed scale and must match its golden byte for byte.
var wallClockColumns = map[string]bool{
	"Euclidean-BF": true, "Hamming-BF": true, "Hamming-Hybrid": true,
	"grid pre-train": true, "per query": true, "TrainSec": true,
	"Encode µs/traj": true, "Search µs/query": true,
}

// maskedRendering renders the table with its wall-clock cells replaced
// by "*", leaving the table itself untouched.
func maskedRendering(tbl *Table) string {
	masked := *tbl
	masked.Rows = make([][]string, len(tbl.Rows))
	for r, row := range tbl.Rows {
		masked.Rows[r] = append([]string(nil), row...)
		for c := range row {
			if c < len(tbl.Header) && wallClockColumns[tbl.Header[c]] {
				masked.Rows[r][c] = "*"
			}
		}
	}
	var buf strings.Builder
	masked.Fprint(&buf)
	return buf.String()
}

// checkGolden compares the masked rendering of an experiment's table with
// testdata/<id>.golden. A golden changes only together with a re-recorded
// EXPERIMENTS.md; regenerate every golden with
//
//	EXPERIMENTS_GOLDEN_OUT="$PWD/internal/experiments/testdata" go test -run EndToEnd ./internal/experiments
//
// which writes the renderings to that directory instead of comparing.
func checkGolden(t *testing.T, id string, tbl *Table) {
	t.Helper()
	got := maskedRendering(tbl)
	if dir := os.Getenv("EXPERIMENTS_GOLDEN_OUT"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, id+".golden"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: table differs from testdata/%s.golden\ngot:%s\nwant:%s", id, id, got, want)
	}
}

// runExperiment executes a registry experiment, sanity-checks the table and
// compares it with its golden.
func runExperiment(t *testing.T, id string, wantRows int) *Table {
	t.Helper()
	exp, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := exp.Run(Tiny, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tbl.Rows) != wantRows {
		t.Errorf("%s: %d rows, want %d", id, len(tbl.Rows), wantRows)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Errorf("%s: ragged row %v", id, row)
		}
	}
	checkGolden(t, id, tbl)
	return tbl
}

func TestEndToEndTable1(t *testing.T) {
	withMicroScale(t)
	runExperiment(t, "table1", 2*len(MethodNames))
}

func TestEndToEndTable2(t *testing.T) {
	withMicroScale(t)
	runExperiment(t, "table2", 2*len(HammingMethodNames))
}

func TestEndToEndTable3(t *testing.T) {
	withMicroScale(t)
	// 2 datasets × 2 distances × 2 spaces × 3 metrics.
	runExperiment(t, "table3", 24)
}

func TestEndToEndFig4(t *testing.T) {
	withMicroScale(t)
	// 2 datasets × 3 distances.
	runExperiment(t, "fig4", 6)
}

func TestEndToEndFig5(t *testing.T) {
	withMicroScale(t)
	// 2 datasets × 2 distances × 5 sizes.
	runExperiment(t, "fig5", 20)
}

func TestEndToEndFig6(t *testing.T) {
	withMicroScale(t)
	// 2 datasets × 2 distances × 5 k values.
	runExperiment(t, "fig6", 20)
}

func TestEndToEndFig7(t *testing.T) {
	withMicroScale(t)
	tbl := runExperiment(t, "fig7", 3)
	// Pre-train time recorded for grid variants, zero for -Grids.
	if tbl.Rows[2][3] != "0s" {
		t.Errorf("-Grids pretrain time = %q", tbl.Rows[2][3])
	}
}

func TestEndToEndFig8(t *testing.T) {
	withMicroScale(t)
	// 2 datasets × 2 distances × 2 spaces.
	runExperiment(t, "fig8", 8)
}

func TestEndToEndFig9(t *testing.T) {
	withMicroScale(t)
	runExperiment(t, "fig9", 8)
}

func TestEndToEndExtraCDTW(t *testing.T) {
	withMicroScale(t)
	// 2 datasets × (3 cDTW widths + Traj2Hash).
	runExperiment(t, "extra-cdtw", 8)
}

func TestEndToEndEncoderRace(t *testing.T) {
	withMicroScale(t)
	tbl := runExperiment(t, "encoders", len(core.EncoderKinds()))
	var geopth []string
	for _, row := range tbl.Rows {
		if row[0] == core.GeoPTHKind {
			geopth = row
		}
	}
	if geopth == nil {
		t.Fatal("encoder race has no geopth row")
	}
	if geopth[1] != "0" {
		t.Errorf("geopth trained %s steps, want 0 (training-free)", geopth[1])
	}
}
