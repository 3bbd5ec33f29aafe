package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
	"traj2hash/internal/nn"
)

// Encoder is the pluggable trajectory-encoder seam of the library: any
// implementation maps a GPS trajectory to a dense Euclidean-space
// embedding and, via the sign convention of Equation 16, to a binary
// Hamming-space code. The paper's attention model (Model), the
// training-free GeoPTH-style prototype hasher (GeoPTH), the CNN over
// grid rasterizations (CNNEncoder), and the six comparison methods of
// internal/baselines all implement it; the public Index, the CLI, and the
// experiment harness are written against this interface and work with any
// of them.
//
// Contract (enforced by the cross-encoder contract test):
//   - Embed is deterministic and returns exactly Dim() values;
//   - Code(t) equals hamming.FromSigns(Embed(t));
//   - EmbedAll and EmbedAllParallel agree with per-trajectory Embed, and
//     EmbedAllParallel is safe for concurrent use while no training step
//     runs.
type Encoder interface {
	// Kind returns the encoder's kind name (see EncoderKinds).
	Kind() string
	// Dim returns the embedding width, which equals the configured code
	// length (Config.HashBits): one sign bit per embedding coordinate.
	Dim() int
	// Embed returns the Euclidean-space embedding of a trajectory.
	Embed(t geo.Trajectory) []float64
	// EmbedAll embeds a batch sequentially.
	EmbedAll(ts []geo.Trajectory) [][]float64
	// EmbedAllParallel embeds a batch across worker goroutines
	// (workers ≤ 0 uses GOMAXPROCS); output order matches ts.
	EmbedAllParallel(ts []geo.Trajectory, workers int) [][]float64
	// Code returns the Hamming-space code sign(Embed(t)).
	Code(t geo.Trajectory) hamming.Code
	// CodeAll hashes a batch of trajectories.
	CodeAll(ts []geo.Trajectory) []hamming.Code
}

// Trainable is the sub-interface of encoders whose parameters are fitted
// by the gradient training loop (Section IV-F) — every encoder that embeds
// a NetEncoder. Training-free encoders —
// GeoPTH — deliberately do not implement it; callers that require
// training should type-assert and fail fast (the CLI train subcommand
// does exactly that).
type Trainable interface {
	Encoder
	// Params returns the trainable parameter tensors (gradient access).
	Params() []*nn.Tensor
	// SetParams overwrites the parameter values from flat per-tensor
	// slices in Params() order, rejecting length mismatches.
	SetParams(groups [][]float64) error
	// Train fits the encoder on the given supervision; a thin wrapper
	// over TrainCtx with a background context.
	Train(td TrainData) (*History, error)
	// TrainCtx is Train honoring cancellation, checkpointing, resume,
	// and the divergence guard (see NetEncoder.TrainCtx for the contract).
	TrainCtx(ctx context.Context, td TrainData) (*History, error)
}

// EncoderSaver is implemented by encoders that can persist themselves;
// SaveEncoder wraps the raw stream in a kind-tagged container so
// LoadEncoder can dispatch to the right loader.
type EncoderSaver interface {
	Encoder
	// Save writes the encoder's raw serialized form to w.
	Save(w io.Writer) error
}

// The built-in encoder kinds.
const (
	// AttentionKind is the paper's two-channel attention model (Model).
	AttentionKind = "attention"
	// GeoPTHKind is the training-free geometric prototype hasher.
	GeoPTHKind = "geopth"
	// CNNKind is the convolutional encoder over grid rasterizations.
	CNNKind = "cnn"
)

// ResolveEncoderKind checks that kind names a built-in encoder.
func ResolveEncoderKind(kind string) error {
	for _, k := range EncoderKinds() {
		if k == kind {
			return nil
		}
	}
	return fmt.Errorf("core: unknown encoder kind %q (have %v)", kind, EncoderKinds())
}

// EncoderKinds returns the names of the built-in encoder kinds, sorted.
func EncoderKinds() []string { return []string{AttentionKind, CNNKind, GeoPTHKind} }

// NewEncoder builds a fresh encoder of the given kind with its study
// space fitted on space.
func NewEncoder(kind string, cfg Config, space []geo.Trajectory) (Encoder, error) {
	switch kind {
	case AttentionKind:
		return New(cfg, space)
	case CNNKind:
		return NewCNN(cfg, space)
	case GeoPTHKind:
		return NewGeoPTH(cfg, space)
	}
	return nil, ResolveEncoderKind(kind)
}

// encoderBlob is the kind-tagged container SaveEncoder writes: the kind
// header dispatches LoadEncoder to its kind's loader for the raw
// bytes that follow.
type encoderBlob struct {
	Kind string
	Raw  []byte
}

// SaveEncoder writes any serializable encoder to w in the kind-tagged
// container format LoadEncoder reads.
func SaveEncoder(w io.Writer, enc Encoder) error {
	saver, ok := enc.(EncoderSaver)
	if !ok {
		return fmt.Errorf("core: encoder kind %q is not serializable", enc.Kind())
	}
	var raw bytes.Buffer
	if err := saver.Save(&raw); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(encoderBlob{Kind: enc.Kind(), Raw: raw.Bytes()}); err != nil {
		return fmt.Errorf("core: save encoder: %w", err)
	}
	return nil
}

// LoadEncoder reads an encoder written by SaveEncoder, dispatching on the
// container's kind header.
func LoadEncoder(r io.Reader) (Encoder, error) {
	var blob encoderBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: load encoder: %w", err)
	}
	// A bytes.Reader is an io.ByteReader, so the loader's gob decoders
	// read exactly their own messages without a bufio wrapper.
	raw := bytes.NewReader(blob.Raw)
	switch blob.Kind {
	case AttentionKind:
		return Load(raw)
	case CNNKind:
		return loadCNN(raw)
	case GeoPTHKind:
		return loadGeoPTH(raw)
	}
	return nil, ResolveEncoderKind(blob.Kind)
}

// SaveEncoderFile writes an encoder to path in the container format,
// atomically and durably as SaveCheckpointFile does: a failed save
// leaves the file that was at path unchanged.
func SaveEncoderFile(path string, enc Encoder) error {
	return writeFileDurable(path, func(w io.Writer) error { return SaveEncoder(w, enc) })
}

// LoadEncoderFile reads an encoder from path, which must hold the
// kind-tagged container SaveEncoderFile writes.
func LoadEncoderFile(path string) (Encoder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	enc, err := LoadEncoder(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("core: %s is not an encoder container (the format SaveEncoderFile and 'traj2hash train' write): %w", path, err)
	}
	return enc, nil
}

// ErrEncoderMismatch is returned (wrapped) when a checkpoint or encoder
// file records one encoder kind and the caller supplies another — e.g.
// resuming a CNN training run into the attention model. Callers
// distinguish it with errors.Is.
var ErrEncoderMismatch = errors.New("core: encoder kind mismatch")

// embedInto writes one trajectory's embedding into dst (len Dim).
type embedInto func(t geo.Trajectory, dst []float64)

// embedAllParallel is the one batch-embedding implementation: a bounded
// worker pool over a shared work counter, deterministic output order
// (workers ≤ 0 uses GOMAXPROCS; one worker runs inline). newWorker is
// called once per worker, so whatever its embedInto closes over — a
// Scratch — is that worker's alone and is reused across its items. Every
// vector is a window of one flat backing array and is written by the
// worker that computed it, so nothing a forward pass allocates outlives
// its item: a batch holds O(workers) scratch however long it is.
func embedAllParallel(ts []geo.Trajectory, dim, workers int, newWorker func() embedInto) [][]float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ts) {
		workers = len(ts)
	}
	vecs := make([][]float64, len(ts))
	flat := make([]float64, len(ts)*dim)
	var next atomic.Int64
	work := func() {
		embed := newWorker()
		for i := int(next.Add(1)) - 1; i < len(ts); i = int(next.Add(1)) - 1 {
			vecs[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
			embed(ts[i], vecs[i])
		}
	}
	if workers <= 1 {
		work()
		return vecs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return vecs
}

// Net is the one thing that differs between gradient-trained encoders:
// the parameters and the forward pass. Forward maps a raw trajectory to
// the 1×Dim representation h_f. With a nil Scratch it runs under the tape
// and builds the gradient graph training differentiates; on a Scratch the
// same ops run tape-free (see nn.Scratch) and the result is valid until s
// is next reset — so lookups from parameter tables must go through
// s.Input, or they stay on the tape. Params may include non-gradient
// state the forward pass reads (NeuTraj's spatial memory): the optimizer
// skips tensors without a gradient, while snapshots, rollback and
// checkpoints carry them with the weights.
type Net interface {
	Params() []*nn.Tensor
	Forward(s *nn.Scratch, t geo.Trajectory) *nn.Tensor
}

// batchLosser is what trainLoop asks a Net for: one that implements it is
// fitted by its own self-supervised objective (t2vec's reconstruction,
// CL-TSim's NT-Xent) in place of the supervised losses of Section IV-F.
// BatchLoss builds the taped loss of one batch of corpus indices, drawing
// whatever randomness it needs (noise cells, augmentations) from rng — the
// per-epoch generator, so the draws replay after resume and rollback. A
// nil result skips the batch.
type batchLosser interface {
	BatchLoss(corpus []geo.Trajectory, batch []int, rng *rand.Rand) *nn.Tensor
}

// NetEncoder is the one implementation of everything gradient-trained
// encoders share — the Encoder surface served tape-free, SetParams, and
// training through trainLoop — over the Net that embeds it: the attention
// Model, the CNNEncoder and the six baselines of internal/baselines each
// embed a NetEncoder built over themselves, supply Params and Forward, and
// thereby implement Trainable.
type NetEncoder struct {
	// Cfg is the configuration the encoder was built with; its training
	// hyper-parameters drive Train.
	Cfg Config

	kind string
	net  Net
	beta float64    // tanh(β·) relaxation scale
	rng  *rand.Rand // the construction generator, which WMSE sampling continues
}

// NewNetEncoder returns the shared surface of the encoder kind over net,
// for net to embed. rng is the generator net's parameters were (or are
// about to be) initialized from.
func NewNetEncoder(kind string, cfg Config, rng *rand.Rand, net Net) NetEncoder {
	return NetEncoder{Cfg: cfg, kind: kind, net: net, beta: cfg.BetaStart, rng: rng}
}

// Kind returns the encoder's kind name (see EncoderKinds) or, for
// encoders outside that list, the name it carries in result tables and
// checkpoints.
func (e *NetEncoder) Kind() string { return e.kind }

// Dim returns the embedding width, which equals the code length
// Config.HashBits (Embed returns h_f of Equation 15, one sign bit per
// coordinate).
func (e *NetEncoder) Dim() int { return e.Cfg.HashBits }

// SetParams overwrites the parameter values from flat per-tensor slices in
// Params() order, rejecting length mismatches.
func (e *NetEncoder) SetParams(groups [][]float64) error {
	ps := e.net.Params()
	if len(groups) != len(ps) {
		return fmt.Errorf("core: SetParams got %d groups, encoder has %d params", len(groups), len(ps))
	}
	for i, p := range ps {
		if len(groups[i]) != len(p.Data) {
			return fmt.Errorf("core: SetParams group %d has %d values, param wants %d", i, len(groups[i]), len(p.Data))
		}
	}
	restoreParams(ps, groups)
	return nil
}

// Embed returns the Euclidean-space embedding h_f of a trajectory as a
// plain vector. The forward pass runs tape-free on a Scratch that dies
// with the call.
func (e *NetEncoder) Embed(t geo.Trajectory) []float64 {
	return append([]float64(nil), e.net.Forward(new(nn.Scratch), t).Data...)
}

// EmbedAll embeds a batch of trajectories sequentially. Every vector
// shares one flat backing array and every forward pass reuses one
// Scratch, so the batch costs a handful of allocations however long it is.
func (e *NetEncoder) EmbedAll(ts []geo.Trajectory) [][]float64 {
	return embedAllParallel(ts, e.Dim(), 1, e.embedWorker)
}

// EmbedAllParallel embeds a batch across worker goroutines (workers ≤ 0
// uses GOMAXPROCS). Forward passes only read the parameters, so this is
// safe whenever no training step runs concurrently. As in EmbedAll, the
// result vectors share one flat backing array.
func (e *NetEncoder) EmbedAllParallel(ts []geo.Trajectory, workers int) [][]float64 {
	return embedAllParallel(ts, e.Dim(), workers, e.embedWorker)
}

// embedWorker is the embedAllParallel worker: it owns one Scratch and runs
// the forward pass on it tape-free, copying the result out before the
// Scratch is reused.
func (e *NetEncoder) embedWorker() embedInto {
	s := new(nn.Scratch)
	return func(t geo.Trajectory, dst []float64) {
		s.Reset()
		copy(dst, e.net.Forward(s, t).Data)
	}
}

// Code returns the Hamming-space hash code z = sign(h_f) of Equation 16.
func (e *NetEncoder) Code(t geo.Trajectory) hamming.Code { return hamming.FromSigns(e.Embed(t)) }

// CodeAll hashes a batch of trajectories.
func (e *NetEncoder) CodeAll(ts []geo.Trajectory) []hamming.Code { return codeAll(e, ts) }

// relaxedCode applies the training-time relaxation tanh(β·h_f) of the sign
// function (Equation 16, following HashNet).
func (e *NetEncoder) relaxedCode(hf *nn.Tensor) *nn.Tensor {
	return nn.Tanh(nn.Scale(hf, e.beta))
}

// codeAll is the shared CodeAll implementation: one Code per trajectory.
func codeAll(enc Encoder, ts []geo.Trajectory) []hamming.Code {
	out := make([]hamming.Code, len(ts))
	for i, t := range ts {
		out[i] = enc.Code(t)
	}
	return out
}
