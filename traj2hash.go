// Package traj2hash is the public API of the Traj2Hash library — a Go
// implementation of "Learning to Hash for Trajectory Similarity Computation
// and Search" (ICDE 2024).
//
// The library learns to encode GPS trajectories into two coordinated
// representations: dense vectors in Euclidean space, whose distances
// approximate an exact trajectory distance (DTW, discrete Fréchet,
// Hausdorff, and others), and binary codes in Hamming space, which support
// table-lookup top-k search. A typical pipeline:
//
//	model, _ := traj2hash.New(traj2hash.DefaultConfig(64), corpus)
//	model.Train(traj2hash.TrainData{Seeds: seeds, Validation: val,
//	        Corpus: corpus, F: traj2hash.Frechet})
//	idx, _ := traj2hash.NewIndex(model, database)
//	top10, status := idx.Do(ctx, traj2hash.Query{Traj: query, K: 10})
//
// The packages under internal/ hold the full implementation — the
// from-scratch neural network framework, the exact distance functions, the
// six comparison baselines, and the experiment harness reproducing every
// table and figure of the paper; this package re-exports the surface a
// downstream application needs.
package traj2hash

import (
	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/eval"
	"traj2hash/internal/geo"
	"traj2hash/internal/hamming"
)

// Point is a planar location (meters in a local frame, or a projected
// longitude/latitude pair — see ProjectLonLat).
type Point = geo.Point

// Trajectory is a sequence of points.
type Trajectory = geo.Trajectory

// Stats holds coordinate normalization statistics.
type Stats = geo.Stats

// Config collects the model and training hyper-parameters; see
// DefaultConfig for the paper's settings.
type Config = core.Config

// Model is a (trained or untrained) Traj2Hash model — the paper's
// attention encoder, one of the built-in Encoder kinds.
type Model = core.Model

// Encoder is the pluggable trajectory-encoder seam: anything that maps a
// trajectory to a Euclidean embedding and a sign-derived Hamming code.
// NewIndex and NewIndexWith accept any Encoder; see EncoderKinds for the
// built-in kinds and NewEncoder to build one by name.
type Encoder = core.Encoder

// Trainable is the sub-interface of encoders fitted by the gradient
// training loop (Model and the CNN encoder). Training-free encoders such
// as GeoPTH do not implement it.
type Trainable = core.Trainable

// TrainData is the input of Model.Train: a seed set whose exact pairwise
// distances supervise the Euclidean space, a validation set for model
// selection, an unlabelled corpus for fast triplet generation, and the
// distance function to approximate.
type TrainData = core.TrainData

// History records a training run.
type History = core.History

// Code is a packed binary hash code.
type Code = hamming.Code

// Metrics bundles the retrieval metrics HR@10, HR@50, and R10@50.
type Metrics = eval.Metrics

// Dataset is a split trajectory collection (seeds / validation / corpus /
// queries / database).
type Dataset = data.Dataset

// SplitSpec gives the split sizes for BuildDataset.
type SplitSpec = data.SplitSpec

// City is a synthetic city model for generating trajectory corpora.
type City = data.City

// DistanceFunc identifies an exact trajectory distance function.
type DistanceFunc = dist.Func

// The supported exact distance functions.
const (
	DTW       = dist.DTWDist
	Frechet   = dist.FrechetDist
	Hausdorff = dist.HausdorffDist
	ERP       = dist.ERPDist
	EDR       = dist.EDRDist
)

// Read-out layer variants (Config.Readout).
const (
	LowerBound = core.LowerBound
	Mean       = core.Mean
	CLS        = core.CLS
)

// The built-in encoder kinds (NewEncoder, the CLI -encoder flag).
const (
	// EncoderAttention is the paper's two-channel attention model.
	EncoderAttention = core.AttentionKind
	// EncoderGeoPTH is the training-free geometric prototype hasher.
	EncoderGeoPTH = core.GeoPTHKind
	// EncoderCNN is the convolutional encoder over grid rasterizations.
	EncoderCNN = core.CNNKind
)

// DefaultConfig returns the paper's hyper-parameters at the given latent
// dimension (the paper uses 64; 16–32 train much faster on CPU).
func DefaultConfig(dim int) Config { return core.DefaultConfig(dim) }

// New builds a model whose study space (grid extent, coordinate
// normalization) is fitted on the given trajectories, which should cover
// all data the model will see.
func New(cfg Config, space []Trajectory) (*Model, error) { return core.New(cfg, space) }

// NewEncoder builds a fresh encoder of the given kind (see the Encoder*
// constants) with its study space fitted on space.
func NewEncoder(kind string, cfg Config, space []Trajectory) (Encoder, error) {
	return core.NewEncoder(kind, cfg, space)
}

// EncoderKinds returns the names of the built-in encoder kinds, sorted.
func EncoderKinds() []string { return core.EncoderKinds() }

// SaveEncoderFile writes any serializable encoder to path in a
// kind-tagged container format.
func SaveEncoderFile(path string, enc Encoder) error { return core.SaveEncoderFile(path, enc) }

// LoadEncoderFile reads an encoder written by SaveEncoderFile.
func LoadEncoderFile(path string) (Encoder, error) { return core.LoadEncoderFile(path) }

// Distance computes the exact trajectory distance f between a and b.
func Distance(f DistanceFunc, a, b Trajectory) float64 { return dist.Distance(f, a, b) }

// DistanceMatrix computes the exact pairwise distance matrix over ts in
// parallel.
func DistanceMatrix(f DistanceFunc, ts []Trajectory) [][]float64 { return dist.Matrix(f, ts) }

// GroundTruth computes, for each query, the exact top-k database indices
// under f — the reference for Evaluate.
func GroundTruth(f DistanceFunc, queries, db []Trajectory, k int) [][]int {
	return eval.GroundTruth(f, queries, db, k)
}

// Evaluate computes HR@10, HR@50, and R10@50 of returned id lists against
// exact ground truth.
func Evaluate(returned, truth [][]int) Metrics { return eval.Evaluate(returned, truth) }

// Porto returns the Porto-like synthetic city model.
func Porto() *City { return data.Porto() }

// ChengDu returns the ChengDu-like synthetic city model.
func ChengDu() *City { return data.ChengDu() }

// BuildDataset generates and splits a synthetic corpus from a city model.
func BuildDataset(c *City, spec SplitSpec, seed int64) *Dataset { return data.Build(c, spec, seed) }

// LoadDataset reads a dataset saved with Dataset.Save.
func LoadDataset(path string) (*Dataset, error) { return data.Load(path) }

// ProjectLonLat converts a (longitude, latitude) pair in degrees into local
// planar meters around the reference latitude. Apply it to raw GPS data
// before building trajectories.
func ProjectLonLat(lon, lat, refLat float64) Point {
	return geo.ProjectEquirectangular(lon, lat, refLat)
}

// HammingDistance returns the Hamming distance between two codes.
func HammingDistance(a, b Code) int { return hamming.Distance(a, b) }

// SignCode packs an embedding into its Hamming code by the sign
// convention of Equation 16 (Model.Code(t) ≡ SignCode(Model.Embed(t))).
// Use it to derive the code from an already-computed embedding instead of
// paying a second encoder forward pass.
func SignCode(emb []float64) Code { return hamming.FromSigns(emb) }
