package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// paramBlob is the gob wire format for one tensor.
type paramBlob struct {
	Rows, Cols int
	Data       []float64
}

// SaveParams writes the parameter tensors to w in order. The caller is
// responsible for producing the same parameter order on load (models expose
// Params() with a stable order, so saving and loading the same architecture
// round-trips).
func SaveParams(w io.Writer, params []*Tensor) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(len(params)); err != nil {
		return fmt.Errorf("nn: encode count: %w", err)
	}
	for i, p := range params {
		if err := enc.Encode(paramBlob{Rows: p.Rows, Cols: p.Cols, Data: p.Data}); err != nil {
			return fmt.Errorf("nn: encode param %d: %w", i, err)
		}
	}
	return nil
}

// ReadParams reads a parameter stream written by SaveParams, sizing
// every tensor from the stream itself, so what it allocates is bounded by
// what it reads. Each tensor's shape must be positive and filled exactly
// by its data.
func ReadParams(r io.Reader) ([]*Tensor, error) {
	dec := gob.NewDecoder(r)
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("nn: decode count: %w", err)
	}
	var ts []*Tensor
	for i := 0; i < n; i++ {
		var blob paramBlob
		if err := dec.Decode(&blob); err != nil {
			return nil, fmt.Errorf("nn: decode param %d: %w", i, err)
		}
		if blob.Rows < 1 || blob.Cols < 1 || len(blob.Data)%blob.Cols != 0 || len(blob.Data)/blob.Cols != blob.Rows {
			return nil, fmt.Errorf("nn: param %d has %d values for a %dx%d shape", i, len(blob.Data), blob.Rows, blob.Cols)
		}
		ts = append(ts, FromSlice(blob.Rows, blob.Cols, blob.Data))
	}
	return ts, nil
}
