package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"traj2hash/internal/geo"
	"traj2hash/internal/grid"
	"traj2hash/internal/nn"
)

// modelBlob is the gob wire format of a trained model: configuration,
// study-space statistics, grid geometry, frozen grid embeddings, and the
// trainable parameters in Params() order.
type modelBlob struct {
	Cfg   Config
	Stats geo.Stats

	HasGrid  bool
	GridMinX float64
	GridMinY float64
	GridCell float64
	GridNX   int
	GridNY   int
	// Frozen grid embeddings: decomposed coordinate tables or the node2vec
	// cell table, depending on Cfg.GridRep.
	ExData, EyData []float64
	N2VData        []float64

	Params [][]float64
}

// Save writes the trained model to w. It is the attention encoder's
// payload inside the kind-tagged container that SaveEncoder writes, and
// not a file format of its own: LoadEncoder dispatches the payload to
// Load.
func (m *Model) Save(w io.Writer) error {
	blob := modelBlob{Cfg: m.Cfg, Stats: m.stats}
	if m.fineGrid != nil {
		blob.HasGrid = true
		blob.GridMinX = m.fineGrid.MinX
		blob.GridMinY = m.fineGrid.MinY
		blob.GridCell = m.fineGrid.CellSize
		blob.GridNX = m.fineGrid.NX
		blob.GridNY = m.fineGrid.NY
		switch emb := m.gridEmb.(type) {
		case *grid.Decomposed:
			blob.ExData = emb.Ex.Data
			blob.EyData = emb.Ey.Data
		case *grid.Node2Vec:
			blob.N2VData = emb.Table.Data
		}
	}
	for _, p := range m.Params() {
		blob.Params = append(blob.Params, p.Data)
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// Load reads a model written by Save, reconstructing the architecture from
// the stored configuration.
func Load(r io.Reader) (*Model, error) {
	var blob modelBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	// Rebuild on a one-point placeholder space, a single grid cell at any
	// cell size, then overwrite everything learned, the grid included: the
	// grid is sized from the tables read, never from the header alone.
	cfg := blob.Cfg
	cfg.GridPreEpochs = 0 // embeddings are restored, not retrained
	m, err := New(cfg, []geo.Trajectory{{{}}})
	if err != nil {
		return nil, fmt.Errorf("core: load rebuild: %w", err)
	}
	m.stats = blob.Stats
	if blob.HasGrid {
		nx, ny, d := blob.GridNX, blob.GridNY, cfg.Dim
		m.fineGrid = &grid.Grid{
			MinX: blob.GridMinX, MinY: blob.GridMinY,
			CellSize: blob.GridCell, NX: nx, NY: ny,
		}
		// Sizes are compared by division, so no product can overflow into
		// a match.
		switch cfg.GridRep {
		case Node2VecRep:
			cells := len(blob.N2VData) / d
			if nx < 1 || ny < 1 || len(blob.N2VData)%d != 0 || cells%nx != 0 || cells/nx != ny {
				return nil, fmt.Errorf("core: load: node2vec table of %d values does not fill a %dx%d grid at dim %d", len(blob.N2VData), nx, ny, d)
			}
			n2v := &grid.Node2Vec{Grid: m.fineGrid, Dim: d,
				Table: nn.FromSlice(cells, d, blob.N2VData)}
			m.gridEmb = n2v
		default:
			if nx < 1 || ny < 1 || len(blob.ExData)%d != 0 || len(blob.ExData)/d != nx ||
				len(blob.EyData)%d != 0 || len(blob.EyData)/d != ny {
				return nil, fmt.Errorf("core: load: coordinate tables of %d and %d values do not fill a %dx%d grid at dim %d", len(blob.ExData), len(blob.EyData), nx, ny, d)
			}
			m.gridEmb = &grid.Decomposed{
				Grid: m.fineGrid, Dim: d,
				Ex: nn.FromSlice(nx, d, blob.ExData),
				Ey: nn.FromSlice(ny, d, blob.EyData),
			}
		}
	}
	ps := m.Params()
	if len(ps) != len(blob.Params) {
		return nil, fmt.Errorf("core: load: %d params stored, model has %d", len(blob.Params), len(ps))
	}
	for i, p := range ps {
		if len(p.Data) != len(blob.Params[i]) {
			return nil, fmt.Errorf("core: load: param %d size %d != %d", i, len(blob.Params[i]), len(p.Data))
		}
		copy(p.Data, blob.Params[i])
	}
	return m, nil
}
