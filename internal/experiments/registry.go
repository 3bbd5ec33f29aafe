package experiments

import (
	"fmt"
	"io"
)

// Experiment identifies one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(scale Scale, log io.Writer) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I — Euclidean-space accuracy", table1},
		{"table2", "Table II — Hamming-space accuracy", table2},
		{"table3", "Table III — ablation study", table3},
		{"fig4", "Figure 4 — read-out layers", fig4},
		{"fig5", "Figure 5 — time vs database size", fig5},
		{"fig6", "Figure 6 — time vs k", fig6},
		{"fig7", "Figure 7 — grid representations", fig7},
		{"fig8", "Figure 8 — margin α sweep", fig8},
		{"fig9", "Figure 9 — balance weight γ sweep", fig9},
		{"extra-cdtw", "Extra — cDTW band width vs learned embeddings", extraCDTW},
		{"encoders", "Extra — encoder zoo: accuracy vs training and query cost", encoderRace},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
