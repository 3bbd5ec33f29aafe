package core

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"traj2hash/internal/nn"
	"traj2hash/internal/obs"
)

// CheckpointVersion is the on-disk format version of Checkpoint.Save.
// Bump it on any incompatible layout change; LoadCheckpoint rejects
// versions it does not understand instead of mis-decoding them.
//
// Version history:
//   - 1: the pre-encoder-interface format — no Kind/Cfg header fields.
//     Still readable: gob leaves the missing fields zero and an empty
//     Kind is treated as AttentionKind (the only encoder that existed).
//   - 2: the header records the encoder kind and its Config, so resuming
//     into the wrong encoder fails with ErrEncoderMismatch instead of a
//     shape-mismatch lottery.
const CheckpointVersion = 2

// Checkpoint is a resumable snapshot of a training run at an epoch
// boundary: the current parameter values, the best-validation snapshot
// for model selection, the Adam moment estimates and step counter, the
// tanh(β·) relaxation, the (possibly guard-reduced) learning rate, and
// the history accumulated so far.
//
// The RNG cursor is the epoch number itself: TrainCtx draws every
// in-epoch sample (anchor shuffle, triplet picks) from a per-epoch
// generator seeded by (Config.Seed, epoch), so resuming at Epoch replays
// exactly the stream an uninterrupted run would have drawn — resumed
// training is bitwise identical to uninterrupted training.
type Checkpoint struct {
	Version int
	// Kind is the encoder kind that wrote the checkpoint (version ≥ 2);
	// empty means a version-1 checkpoint, which is by definition the
	// attention model.
	Kind string
	// Cfg is the encoder configuration of the run (version ≥ 2),
	// recorded so tooling can rebuild the encoder without guessing;
	// zero for version-1 checkpoints.
	Cfg Config
	// Epoch is the number of completed epochs; resume starts there.
	Epoch int
	// Beta is the current tanh(β·) relaxation scale.
	Beta float64
	// LR is the current learning rate (reduced after guard rollbacks).
	LR float64
	// Rollbacks counts divergence-guard rollbacks taken so far.
	Rollbacks int
	// AdamT is the optimizer's step counter; AdamM/AdamV its moments.
	AdamT int
	// History is the run history up to Epoch (deep copy).
	History History
	// Shapes records each parameter tensor's rows×cols, validated on
	// resume against the live model.
	Shapes [][2]int

	// Params, Best, AdamM, AdamV are parallel to Shapes.
	Params [][]float64
	Best   [][]float64
	AdamM  [][]float64
	AdamV  [][]float64
}

// checkpointMeta is the gob header of the stream written by Save; the
// four parameter groups follow it via nn.SaveParams.
type checkpointMeta struct {
	Version   int
	Kind      string
	Cfg       Config
	Epoch     int
	Beta      float64
	LR        float64
	Rollbacks int
	AdamT     int
	History   History
	Shapes    [][2]int
}

// tensorsOver wraps flat parameter groups in Tensor headers of the given
// shapes (sharing the data) so nn.SaveParams can carry them.
func tensorsOver(shapes [][2]int, group [][]float64) []*nn.Tensor {
	ts := make([]*nn.Tensor, len(group))
	for i, data := range group {
		ts[i] = nn.FromSlice(shapes[i][0], shapes[i][1], data)
	}
	return ts
}

// Save writes the checkpoint to w: a gob metadata header followed by the
// four parameter groups in nn.SaveParams format.
func (c *Checkpoint) Save(w io.Writer) error {
	meta := checkpointMeta{
		Version:   CheckpointVersion,
		Kind:      c.Kind,
		Cfg:       c.Cfg,
		Epoch:     c.Epoch,
		Beta:      c.Beta,
		LR:        c.LR,
		Rollbacks: c.Rollbacks,
		AdamT:     c.AdamT,
		History:   c.History,
		Shapes:    c.Shapes,
	}
	if err := gob.NewEncoder(w).Encode(meta); err != nil {
		return fmt.Errorf("core: checkpoint meta: %w", err)
	}
	for _, group := range [][][]float64{c.Params, c.Best, c.AdamM, c.AdamV} {
		if len(group) != len(c.Shapes) {
			return fmt.Errorf("core: checkpoint group has %d tensors, want %d", len(group), len(c.Shapes))
		}
		if err := nn.SaveParams(w, tensorsOver(c.Shapes, group)); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var meta checkpointMeta
	if err := gob.NewDecoder(r).Decode(&meta); err != nil {
		return nil, fmt.Errorf("core: checkpoint meta: %w", err)
	}
	if meta.Version < 1 || meta.Version > CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, this build reads 1..%d", meta.Version, CheckpointVersion)
	}
	c := &Checkpoint{
		Version:   meta.Version,
		Kind:      meta.Kind,
		Cfg:       meta.Cfg,
		Epoch:     meta.Epoch,
		Beta:      meta.Beta,
		LR:        meta.LR,
		Rollbacks: meta.Rollbacks,
		AdamT:     meta.AdamT,
		History:   meta.History,
		Shapes:    meta.Shapes,
	}
	// Each group is sized from its decoded tensors, never from the
	// header's Shapes, which are only compared: a hostile header can
	// neither panic make nor allocate more than the stream carries.
	for _, dst := range []*[][]float64{&c.Params, &c.Best, &c.AdamM, &c.AdamV} {
		ts, err := nn.ReadParams(r)
		if err != nil {
			return nil, err
		}
		if len(ts) != len(meta.Shapes) {
			return nil, fmt.Errorf("core: checkpoint group has %d tensors, header has %d shapes", len(ts), len(meta.Shapes))
		}
		group := make([][]float64, len(ts))
		for i, t := range ts {
			if t.Rows != meta.Shapes[i][0] || t.Cols != meta.Shapes[i][1] {
				return nil, fmt.Errorf("core: checkpoint tensor %d is %dx%d, header says %dx%d",
					i, t.Rows, t.Cols, meta.Shapes[i][0], meta.Shapes[i][1])
			}
			group[i] = t.Data
		}
		*dst = group
	}
	return c, nil
}

// Checkpoint persistence counters, on the process-global obs registry
// (SaveCheckpointFile is a free function with no configuration surface;
// the CLI's /metrics endpoint and -stats summaries read obs.Default).
var (
	checkpointWrites       = obs.Default().Counter("core.checkpoint.writes")
	checkpointWriteFailers = obs.Default().Counter("core.checkpoint.write_failures")
)

// SaveCheckpointFile writes the checkpoint to path atomically and
// durably (see writeFileDurable): an interrupt at any point leaves either
// the old complete file or the new complete file, never a torn one.
// Outcomes are counted on obs.Default (core.checkpoint.writes /
// core.checkpoint.write_failures).
func SaveCheckpointFile(path string, c *Checkpoint) (err error) {
	defer func() {
		if err != nil {
			checkpointWriteFailers.Inc()
		} else {
			checkpointWrites.Inc()
		}
	}()
	return writeFileDurable(path, c.Save)
}

// writeFileDurable writes path through write atomically AND durably: the
// bytes are written to a sibling temp file, fsynced to stable storage,
// renamed over path, and the parent directory is synced so the rename
// itself survives a crash. The ordering matters — renaming before fsync
// would publish a file whose data could still be lost to power failure.
// A failed write removes the temp file and leaves path as it was.
func writeFileDurable(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		//lint:ignore errcheck the write error takes precedence over the cleanup close
		tmp.Close()
		return err
	}
	// Sync BEFORE the close/rename: Close flushes to the OS, but only
	// fsync forces the data to stable storage — without it, a power loss
	// shortly after the rename can reveal an empty or torn file at path.
	if err := tmp.Sync(); err != nil {
		//lint:ignore errcheck the sync error takes precedence over the cleanup close
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename in it is
// durable. Filesystems that do not support syncing directories (or
// platforms where opening a directory for sync fails) are tolerated —
// the unsupported-operation class of errors is swallowed, real I/O
// errors are returned.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if serr != nil && (errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP)) {
		serr = nil
	}
	if serr != nil {
		//lint:ignore errcheck the sync error takes precedence over the cleanup close
		d.Close()
		return serr
	}
	return d.Close()
}

// LoadCheckpointFile reads a checkpoint from path. The file is wrapped
// in a bufio.Reader so the stream's several sequential gob decoders (the
// meta header plus the parameter groups) each see an io.ByteReader and
// read exactly their own messages — gob.NewDecoder over a bare *os.File
// would buffer ahead and starve the decoders after it.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCheckpoint(bufio.NewReader(f))
}

// buildCheckpoint captures the live training state as a Checkpoint (deep
// copies throughout — the snapshot must not alias tensors the next epoch
// will mutate). The header records the encoder kind and configuration so
// a resume into the wrong encoder fails with a typed error.
func buildCheckpoint(m *NetEncoder, opt *nn.Adam, epoch int, h *History, lr float64, rollbacks int, best [][]float64) *Checkpoint {
	ps := m.net.Params()
	shapes := make([][2]int, len(ps))
	params := make([][]float64, len(ps))
	for i, p := range ps {
		shapes[i] = [2]int{p.Rows, p.Cols}
		params[i] = append([]float64(nil), p.Data...)
	}
	bestCopy := make([][]float64, len(best))
	for i, b := range best {
		bestCopy[i] = append([]float64(nil), b...)
	}
	t, am, av := opt.State()
	return &Checkpoint{
		Version:   CheckpointVersion,
		Kind:      m.Kind(),
		Cfg:       m.Cfg,
		Epoch:     epoch,
		Beta:      m.beta,
		LR:        lr,
		Rollbacks: rollbacks,
		AdamT:     t,
		History:   h.clone(),
		Shapes:    shapes,
		Params:    params,
		Best:      bestCopy,
		AdamM:     am,
		AdamV:     av,
	}
}

// applyCheckpoint writes a checkpoint back into the live encoder and
// optimizer, returning the restored best snapshot and history. It
// validates the checkpoint's encoder kind (ErrEncoderMismatch on
// disagreement — an empty kind means a version-1 checkpoint, which is
// always the attention model) and the parameter shapes, so a mismatch
// fails loudly instead of training from garbage.
func applyCheckpoint(m *NetEncoder, c *Checkpoint, opt *nn.Adam) ([][]float64, *History, error) {
	kind := c.Kind
	if kind == "" {
		kind = AttentionKind
	}
	if kind != m.Kind() {
		return nil, nil, fmt.Errorf("core: checkpoint was written by encoder %q, resuming with %q: %w",
			kind, m.Kind(), ErrEncoderMismatch)
	}
	ps := m.net.Params()
	if len(c.Shapes) != len(ps) {
		return nil, nil, fmt.Errorf("core: checkpoint has %d params, model has %d", len(c.Shapes), len(ps))
	}
	for i, p := range ps {
		if c.Shapes[i] != [2]int{p.Rows, p.Cols} {
			return nil, nil, fmt.Errorf("core: checkpoint param %d is %dx%d, model wants %dx%d",
				i, c.Shapes[i][0], c.Shapes[i][1], p.Rows, p.Cols)
		}
		if len(c.Params[i]) != len(p.Data) || len(c.Best[i]) != len(p.Data) {
			return nil, nil, fmt.Errorf("core: checkpoint param %d data length mismatch", i)
		}
	}
	for i, p := range ps {
		copy(p.Data, c.Params[i])
	}
	if err := opt.SetState(c.AdamT, c.AdamM, c.AdamV); err != nil {
		return nil, nil, err
	}
	m.beta = c.Beta
	best := make([][]float64, len(c.Best))
	for i, b := range c.Best {
		best[i] = append([]float64(nil), b...)
	}
	h := c.History.clone()
	return best, &h, nil
}

// clone deep-copies a History.
func (h History) clone() History {
	out := h
	out.EpochLoss = append([]float64(nil), h.EpochLoss...)
	out.ValHR10 = append([]float64(nil), h.ValHR10...)
	out.Diverged = append([]int(nil), h.Diverged...)
	return out
}
