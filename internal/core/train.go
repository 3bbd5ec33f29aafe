package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"traj2hash/internal/dist"
	"traj2hash/internal/eval"
	"traj2hash/internal/geo"
	"traj2hash/internal/nn"
	"traj2hash/internal/obs"
)

// ErrDiverged is returned (wrapped) by Train/TrainCtx when an epoch
// produces non-finite losses, parameters, or validation embeddings and
// no checkpoint is available to roll back to — or the rollback budget is
// exhausted. Callers distinguish it with errors.Is.
var ErrDiverged = errors.New("core: training diverged (non-finite loss, parameters, or validation embeddings)")

// TrainData is the input of the optimization component (Section IV-F): a
// seed set with exact pairwise distances, a validation set for model
// selection, an unlabelled corpus for fast triplet generation, and the
// distance function to approximate — plus the robustness knobs of
// TrainCtx (checkpointing, resume, fault-injection hooks).
type TrainData struct {
	Seeds      []geo.Trajectory
	Validation []geo.Trajectory
	Corpus     []geo.Trajectory
	F          dist.Func

	// CheckpointEvery, when > 0 together with OnCheckpoint, emits a
	// resumable Checkpoint every CheckpointEvery epochs (counted in
	// absolute epoch numbers, so the cadence survives a resume).
	CheckpointEvery int
	// OnCheckpoint receives periodic checkpoints, and — regardless of
	// CheckpointEvery — the last completed-epoch checkpoint when the
	// context is canceled mid-run (SIGINT-triggered graceful exit). A
	// non-nil error aborts training.
	OnCheckpoint func(*Checkpoint) error
	// Resume, when non-nil, restores an interrupted run: parameters,
	// optimizer state, β, learning rate, and history, continuing at
	// Resume.Epoch. The model must have been constructed with the same
	// Config (including Seed) and study space as the interrupted run;
	// shape mismatches are rejected.
	Resume *Checkpoint
	// MaxRollbacks bounds divergence-guard rollbacks before training
	// gives up with ErrDiverged (0 means the default of 3).
	MaxRollbacks int
	// StepHook, when non-nil, runs after every optimizer step with the
	// absolute epoch and the step index within it. It exists for test
	// instrumentation (internal/faultinject's gradient poisoning) and
	// must not be used to mutate training state in production.
	StepHook func(epoch, step int)
	// Metrics, when non-nil, receives training telemetry: per-epoch loss
	// and validation gauges, a gradient-norm histogram, and rollback /
	// checkpoint-emit counters (see DESIGN.md "Observability" for the
	// metric names). nil disables instrumentation entirely — not even
	// the gradient norm is computed for it.
	Metrics *obs.Registry
}

// History records one training run.
type History struct {
	EpochLoss []float64 // mean combined loss per epoch
	ValHR10   []float64 // validation HR@10 per epoch (NaN = no validation set)
	BestEpoch int
	BestHR10  float64
	Theta     float64 // the similarity smoothing actually used
	Triplets  int     // triplets generated from the corpus
	// Diverged lists the epochs at which the divergence guard tripped;
	// each listed epoch was rolled back to the previous checkpoint and
	// replayed at half the learning rate. Divergence is flagged here
	// explicitly rather than leaking silently into ValHR10 as NaN.
	Diverged []int
}

// trainMetrics bundles the instruments TrainCtx updates. A nil
// *trainMetrics (TrainData.Metrics unset) makes every record call a
// no-op via obs's nil-receiver contract, so the uninstrumented path pays
// only a pointer check.
type trainMetrics struct {
	epoch           *obs.Gauge     // train.epoch: last completed epoch number
	epochLoss       *obs.Gauge     // train.epoch.loss: mean loss of the last completed epoch
	valHR10         *obs.Gauge     // train.val.hr10: validation HR@10 of the last completed epoch
	gradNorm        *obs.Histogram // train.grad_norm: pre-clip gradient L2 norm per step
	rollbacks       *obs.Counter   // train.rollbacks: divergence-guard rollbacks taken
	checkpointEmits *obs.Counter   // train.checkpoint.emits: checkpoints handed to OnCheckpoint
}

// newTrainMetrics registers the training instruments on reg; nil in, nil out.
func newTrainMetrics(reg *obs.Registry) *trainMetrics {
	if reg == nil {
		return nil
	}
	return &trainMetrics{
		epoch:           reg.Gauge("train.epoch"),
		epochLoss:       reg.Gauge("train.epoch.loss"),
		valHR10:         reg.Gauge("train.val.hr10"),
		gradNorm:        reg.Histogram("train.grad_norm", obs.MagnitudeBounds()),
		rollbacks:       reg.Counter("train.rollbacks"),
		checkpointEmits: reg.Counter("train.checkpoint.emits"),
	}
}

// RankingHinge builds the ranking-based hashing objective term of
// Equation 19 for one (anchor, positive, negative) triple of relaxed codes:
// [−u_a·u_p + u_a·u_n + α]_+ . It is shared with the baselines' hash
// adapters (Section V-A3 trains them with this same objective).
func RankingHinge(ua, up, un *nn.Tensor, alpha float64) *nn.Tensor {
	margin := nn.AddScalar(nn.Sub(nn.Dot(ua, un), nn.Dot(ua, up)), alpha)
	return nn.HingeScalar(margin)
}

// sampleSet holds the WMSE samples of one anchor: indices into the seed
// slice and their rank weights r_j (most similar first).
type sampleSet struct {
	ids     []int
	weights []float64
}

// buildSamples selects, per anchor, the M/2 most similar seeds plus M/2
// random seeds, weighted by descending rank, following NeuTraj's
// distance-weighted sampling.
func buildSamples(s [][]float64, mSamples int, rng randSource) []sampleSet {
	n := len(s)
	out := make([]sampleSet, n)
	for i := 0; i < n; i++ {
		order := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				order = append(order, j)
			}
		}
		row := s[i]
		sort.Slice(order, func(a, b int) bool { return row[order[a]] > row[order[b]] })
		half := mSamples / 2
		if half > len(order) {
			half = len(order)
		}
		ids := append([]int(nil), order[:half]...)
		for len(ids) < mSamples && len(order) > 0 {
			ids = append(ids, order[rng.Intn(len(order))])
		}
		w := make([]float64, len(ids))
		var total float64
		for k := range w {
			w[k] = float64(len(ids) - k) // linear descending rank weight
			total += w[k]
		}
		for k := range w {
			w[k] /= total
		}
		out[i] = sampleSet{ids: ids, weights: w}
	}
	return out
}

// randSource is the subset of *rand.Rand the training loop uses, split out
// so tests can substitute deterministic sources.
type randSource interface {
	Intn(n int) int
	Shuffle(n int, swap func(i, j int))
	Float64() float64
}

// snapshotParams copies all parameter values (for best-epoch model
// selection and the divergence guard's rollback target).
func snapshotParams(ps []*nn.Tensor) [][]float64 {
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

// restoreParams writes a snapshot back into the parameters.
func restoreParams(ps []*nn.Tensor, snap [][]float64) {
	for i, p := range ps {
		copy(p.Data, snap[i])
	}
}

// Train runs the end-to-end optimization of Equation 21:
// L = L_s + γ·(L_r + L_t), with Adam, HashNet β-scheduling, and
// best-validation-HR@10 model selection (Section V-A5). It is a thin
// wrapper over TrainCtx with a background context.
func (e *NetEncoder) Train(td TrainData) (*History, error) {
	return e.TrainCtx(context.Background(), td)
}

// epochRNG derives the deterministic in-epoch sample stream (anchor
// shuffle, triplet picks) for one epoch. Keying the generator by
// (seed, epoch) — rather than advancing one generator across epochs —
// makes the epoch number the training run's RNG cursor: a run resumed
// from a Checkpoint at epoch N draws exactly the stream an uninterrupted
// run would have drawn from epoch N on, which is what makes resumed
// training bitwise identical to uninterrupted training.
func epochRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(epoch)*7919 + 12289))
}

// paramsNonFinite reports whether any parameter holds a NaN or an Inf —
// the cheap half of the divergence guard.
func paramsNonFinite(ps []*nn.Tensor) bool {
	for _, p := range ps {
		for _, v := range p.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return false
}

// TrainCtx is Train with a failure domain around it:
//
//   - Cancellation: ctx is honored between batches; on cancellation the
//     last completed-epoch checkpoint is flushed through td.OnCheckpoint
//     (when set) and the ctx error is returned (wrapped), so a SIGINT
//     costs at most one epoch of work.
//   - Checkpointing: every td.CheckpointEvery epochs a resumable
//     Checkpoint (parameters, Adam state, β, LR, history, best-epoch
//     snapshot) is emitted; td.Resume restores one.
//   - Divergence guard: an epoch ending with non-finite loss,
//     parameters, or validation embeddings is rolled back to the last
//     good epoch boundary and replayed at half the learning rate (the
//     trip is recorded in History.Diverged); with no boundary to roll
//     back to — or the rollback budget exhausted — training returns
//     ErrDiverged instead of silently emitting NaN metrics.
func (e *NetEncoder) TrainCtx(ctx context.Context, td TrainData) (*History, error) {
	return trainLoop(ctx, e, td)
}

// trainLoop is the one training loop, behind NetEncoder.TrainCtx: any Net
// — a differentiable forward pass plus parameter access — gets the full
// Section IV-F optimization with checkpointing, resume, and the divergence
// guard. The ablation switches of Config select the objective: Gamma = 0
// with UseTriplets off leaves exactly the WMSE loss of Equation 17 (what
// the supervised baselines train with), and a Net that brings its own
// batch loss (batchLosser) runs it over shuffled corpus batches in place
// of the seed and triplet phases, needing no seeds or distance function.
func trainLoop(ctx context.Context, m *NetEncoder, td TrainData) (*History, error) {
	cfg := m.Cfg
	own, selfSupervised := m.net.(batchLosser)
	switch {
	case selfSupervised && len(td.Corpus) == 0:
		return nil, fmt.Errorf("core: %s trains on the corpus alone, and TrainData.Corpus is empty", m.kind)
	case !selfSupervised && len(td.Seeds) < cfg.M+1:
		return nil, fmt.Errorf("core: need at least M+1=%d seeds, got %d", cfg.M+1, len(td.Seeds))
	}
	h := &History{}
	met := newTrainMetrics(td.Metrics)

	// Exact supervision over the labelled set (Section IV-A): seeds first,
	// then validation, one symmetric matrix so validation ground truth
	// reuses the same computation.
	labelled := append(append([]geo.Trajectory{}, td.Seeds...), td.Validation...)
	d := dist.Matrix(td.F, labelled)
	theta := cfg.Theta
	if theta <= 0 {
		if mean := dist.MeanOffDiagonal(d); mean > 0 {
			theta = 1 / mean
		} else {
			theta = 1
		}
	}
	h.Theta = theta
	s := dist.Similarity(d, theta)
	ns := len(td.Seeds)
	seedSim := make([][]float64, ns)
	for i := 0; i < ns; i++ {
		seedSim[i] = s[i][:ns]
	}

	// Validation ground truth: each validation trajectory queries the
	// validation block (exact top-k from the distance matrix).
	var valTruth [][]int
	if len(td.Validation) > 0 {
		valTruth = make([][]int, len(td.Validation))
		for i := range td.Validation {
			row := d[ns+i][ns:]
			valTruth[i] = eval.TopK(row, 10)
		}
	}

	// Fast triplet generation (Section IV-F).
	var triplets []Triplet
	if cfg.UseTriplets && !selfSupervised && len(td.Corpus) >= 3 {
		triplets = GenerateTriplets(td.Corpus, cfg.TripletCellSize, cfg.NumTriplets, cfg.Seed)
	}
	h.Triplets = len(triplets)

	samples := buildSamples(seedSim, cfg.M, m.rng)
	params := m.net.Params()
	opt := nn.NewAdam(params, cfg.LR)

	bestSnap := snapshotParams(params)
	h.BestHR10 = -1
	lr := cfg.LR
	rollbacks := 0
	maxRollbacks := td.MaxRollbacks
	if maxRollbacks <= 0 {
		maxRollbacks = 3
	}
	startEpoch := 0
	// lastGood is the most recent completed-epoch checkpoint: the guard's
	// rollback target and the snapshot flushed on cancellation. It is
	// maintained every epoch (cheap at these model sizes) whether or not
	// periodic checkpointing is on.
	var lastGood *Checkpoint
	if td.Resume != nil {
		bs, hr, err := applyCheckpoint(m, td.Resume, opt)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		bestSnap, h = bs, hr
		lr = td.Resume.LR
		rollbacks = td.Resume.Rollbacks
		startEpoch = td.Resume.Epoch
		lastGood = td.Resume
	}
	opt.LR = lr

	// interrupted flushes the last good checkpoint (when a sink is
	// configured) and surfaces the context error: a canceled training run
	// costs at most the current, incomplete epoch.
	interrupted := func(epoch int) (*History, error) {
		if td.OnCheckpoint != nil && lastGood != nil {
			if err := td.OnCheckpoint(lastGood); err != nil {
				return h, fmt.Errorf("core: checkpoint on interrupt: %w", err)
			}
			if met != nil {
				met.checkpointEmits.Inc()
			}
		}
		return h, fmt.Errorf("core: training interrupted in epoch %d: %w", epoch, context.Cause(ctx))
	}

	// One epoch visits every seed anchor once — or, under a Net's own batch
	// loss, every corpus trajectory.
	anchors := make([]int, ns)
	if selfSupervised {
		anchors = make([]int, len(td.Corpus))
	}
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		if ctx.Err() != nil {
			return interrupted(epoch)
		}
		// The in-epoch sample stream is keyed by (seed, epoch) and the
		// anchor order is re-derived from identity each epoch, so the
		// epoch number alone is the RNG cursor (see epochRNG).
		erng := epochRNG(cfg.Seed, epoch)
		for i := range anchors {
			anchors[i] = i
		}
		erng.Shuffle(len(anchors), func(i, j int) { anchors[i], anchors[j] = anchors[j], anchors[i] })
		var epochLoss float64
		var steps, stepIdx int
		canceled := false

		step := func(loss *nn.Tensor) {
			epochLoss += loss.Scalar()
			steps++
			loss.Backward()
			if cfg.ClipNorm > 0 {
				norm := nn.ClipGradNorm(opt.Params, cfg.ClipNorm)
				if met != nil {
					met.gradNorm.Observe(norm)
				}
			} else if met != nil {
				// ClipGradNorm with an infinite bound computes the pre-clip
				// norm without scaling anything — the instrumented path gets
				// the histogram even when clipping is off, the
				// uninstrumented path never pays for the norm.
				met.gradNorm.Observe(nn.ClipGradNorm(opt.Params, math.Inf(1)))
			}
			opt.Step()
			if td.StepHook != nil {
				td.StepHook(epoch, stepIdx)
			}
			stepIdx++
		}

		// WMSE + seed ranking batches (or the Net's own batch loss).
		for lo := 0; lo < len(anchors); lo += cfg.BatchSize {
			if ctx.Err() != nil {
				canceled = true
				break
			}
			hi := lo + cfg.BatchSize
			if hi > len(anchors) {
				hi = len(anchors)
			}
			var loss *nn.Tensor
			if selfSupervised {
				loss = own.BatchLoss(td.Corpus, anchors[lo:hi], erng)
			} else {
				loss = seedBatchLoss(m, td.Seeds, seedSim, samples, anchors[lo:hi])
			}
			if loss == nil {
				continue
			}
			step(loss)
		}

		// Triplet ranking batches on the generated corpus.
		if !canceled && len(triplets) > 0 {
			for b := 0; b < tripletBatchesPerEpoch; b++ {
				if ctx.Err() != nil {
					canceled = true
					break
				}
				loss := tripletBatchLoss(m, td.Corpus, triplets, erng)
				if loss == nil {
					continue
				}
				step(loss)
			}
		}
		if canceled {
			return interrupted(epoch)
		}

		meanLoss := 0.0
		if steps > 0 {
			meanLoss = epochLoss / float64(steps)
		}
		hr, hasVal := validationHR10(m, td.Validation, valTruth)

		// Divergence guard: a non-finite epoch never enters the history
		// and never becomes lastGood — it is rolled back and replayed at
		// half the learning rate, or surfaced as ErrDiverged when there
		// is nothing to roll back to.
		if math.IsNaN(meanLoss) || math.IsInf(meanLoss, 0) || paramsNonFinite(params) || (hasVal && math.IsNaN(hr)) {
			if lastGood == nil || rollbacks >= maxRollbacks {
				h.Diverged = append(h.Diverged, epoch)
				return h, fmt.Errorf("core: epoch %d went non-finite with no checkpoint to roll back to (rollbacks %d/%d): %w",
					epoch, rollbacks, maxRollbacks, ErrDiverged)
			}
			rollbacks++
			if met != nil {
				met.rollbacks.Inc()
			}
			lr *= 0.5
			bs, hrz, err := applyCheckpoint(m, lastGood, opt)
			if err != nil {
				return h, fmt.Errorf("core: rollback: %w", err)
			}
			bestSnap, h = bs, hrz
			opt.LR = lr
			h.Diverged = append(h.Diverged, epoch)
			epoch = lastGood.Epoch - 1 // loop increment replays from the boundary
			continue
		}

		h.EpochLoss = append(h.EpochLoss, meanLoss)
		h.ValHR10 = append(h.ValHR10, hr)
		if met != nil {
			met.epoch.Set(float64(epoch + 1))
			met.epochLoss.Set(meanLoss)
			if hasVal {
				met.valHR10.Set(hr)
			}
		}
		// Model selection keeps the best validation epoch. With no
		// validation set there is nothing to select on (hr is NaN and
		// compares false), so the last epoch that got here — non-finite
		// epochs never do — is the one to keep.
		if !hasVal || hr > h.BestHR10 {
			if hasVal {
				h.BestHR10 = hr
			}
			h.BestEpoch = epoch
			bestSnap = snapshotParams(params)
		}

		// HashNet relaxation schedule: β grows each epoch, sharpening
		// tanh(β·) toward sign(·).
		m.beta *= cfg.BetaGrowth

		lastGood = buildCheckpoint(m, opt, epoch+1, h, lr, rollbacks, bestSnap)
		if td.CheckpointEvery > 0 && td.OnCheckpoint != nil && (epoch+1)%td.CheckpointEvery == 0 {
			if err := td.OnCheckpoint(lastGood); err != nil {
				return h, fmt.Errorf("core: checkpoint at epoch %d: %w", epoch+1, err)
			}
			if met != nil {
				met.checkpointEmits.Inc()
			}
		}
	}
	restoreParams(params, bestSnap)
	// A trained encoder is served tape-free and never reads a gradient
	// again; left in place the buffers double its resident size. A later
	// Train call re-creates them on its first Backward.
	for _, p := range params {
		p.Grad = nil
	}
	return h, nil
}

// tripletBatchesPerEpoch bounds the triplet work per epoch; the triplet
// corpus is sampled, not exhausted, each epoch (it can be millions of
// triplets at paper scale).
const tripletBatchesPerEpoch = 2

// seedBatchLoss builds L_s + γ·L_r (Equations 17 and 19) over a batch of
// anchors. Returns nil when the batch is empty.
func seedBatchLoss(m *NetEncoder, seeds []geo.Trajectory, s [][]float64, samples []sampleSet, batch []int) *nn.Tensor {
	if len(batch) == 0 {
		return nil
	}
	// Every trajectory the loss reads, in first-use order: each anchor,
	// then its samples (the ranking pairs below are drawn from those).
	ids := make([]int, 0, len(batch)*(m.Cfg.M+1))
	for _, i := range batch {
		ids = append(append(ids, i), samples[i].ids...)
	}
	h := tapedForwards(m.net, seeds, ids)

	var terms []*nn.Tensor
	for _, i := range batch {
		hi := h[i]
		set := samples[i]
		// L_s: weighted MSE between g = exp(−‖·‖) and S_ij (Equation 17).
		for k, j := range set.ids {
			g := nn.Exp(nn.Scale(nn.EuclideanDistance(hi, h[j]), -1))
			diff := nn.AddScalar(g, -s[i][j])
			terms = append(terms, nn.Scale(nn.Square(diff), set.weights[k]))
		}
		// L_r: the M samples grouped into M/2 (positive, negative) pairs by
		// similarity (Equation 19), on the tanh-relaxed codes.
		if m.Cfg.Gamma > 0 {
			ui := m.relaxedCode(hi)
			order := append([]int(nil), set.ids...)
			row := s[i]
			sort.Slice(order, func(a, b int) bool { return row[order[a]] > row[order[b]] })
			for k := 0; k < len(order)/2; k++ {
				p := order[k]
				n := order[len(order)-1-k]
				if row[p] <= row[n] {
					continue
				}
				up := m.relaxedCode(h[p])
				un := m.relaxedCode(h[n])
				hinge := RankingHinge(ui, up, un, m.Cfg.Alpha)
				terms = append(terms, nn.Scale(hinge, 0.5*m.Cfg.Gamma))
			}
		}
	}
	if len(terms) == 0 {
		return nil
	}
	return nn.Scale(sumTerms(terms), 1/float64(len(batch)))
}

// tripletBatchLoss builds γ·L_t (Equation 20) over a random triplet
// batch drawn from rng — the per-epoch generator, so the picks belong to
// the epoch's replayable sample stream (see epochRNG).
func tripletBatchLoss(m *NetEncoder, corpus []geo.Trajectory, triplets []Triplet, rng randSource) *nn.Tensor {
	//lint:ignore floatcompare γ is a user-set hyper-parameter; exactly 0 is the documented "triplet loss off" switch
	if m.Cfg.Gamma == 0 || len(triplets) == 0 {
		return nil
	}
	n := m.Cfg.TripletBatch
	if n > len(triplets) {
		n = len(triplets)
	}
	// The picks are drawn before any forward runs (forwards draw nothing
	// from rng), so the epoch's sample stream is what it always was.
	picks := make([]Triplet, n)
	ids := make([]int, 0, 3*n)
	for b := range picks {
		t := triplets[rng.Intn(len(triplets))]
		picks[b] = t
		ids = append(ids, t.Anchor, t.Positive, t.Negative)
	}
	codes := tapedForwards(m.net, corpus, ids)
	for i, h := range codes {
		codes[i] = m.relaxedCode(h)
	}
	var terms []*nn.Tensor
	for _, t := range picks {
		hinge := RankingHinge(codes[t.Anchor], codes[t.Positive], codes[t.Negative], m.Cfg.Alpha)
		terms = append(terms, nn.Scale(hinge, m.Cfg.Gamma))
	}
	if len(terms) == 0 {
		return nil
	}
	return nn.Scale(sumTerms(terms), 1/float64(n))
}

// serialForward marks a Net whose taped Forward writes state that later
// forwards read — NeuTraj's SAM memory, which a training pass updates
// with the states it produced. Such a net's forwards run on one worker,
// in the order the loss first uses them, as they always have.
type serialForward interface {
	SerialForward()
}

// tapedForwards runs net's taped Forward over ts[id] for every distinct
// id, in first-use order, and returns the outputs by id. The forwards of
// one step are independent — each only reads the parameters and builds a
// graph of its own — so they run on GOMAXPROCS workers (one for a
// serialForward net); a loss built over the outputs is then exactly the
// graph a sequential pass would have built, and Backward walks it in the
// same order to the same bits.
func tapedForwards(net Net, ts []geo.Trajectory, ids []int) map[int]*nn.Tensor {
	out := make(map[int]*nn.Tensor, len(ids))
	var distinct []int
	for _, id := range ids {
		if _, ok := out[id]; !ok {
			out[id] = nil
			distinct = append(distinct, id)
		}
	}
	hs := make([]*nn.Tensor, len(distinct))
	var next atomic.Int64
	work := func() {
		for k := int(next.Add(1)) - 1; k < len(distinct); k = int(next.Add(1)) - 1 {
			hs[k] = net.Forward(nil, ts[distinct[k]])
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(distinct))
	if _, serial := net.(serialForward); serial || workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for k, id := range distinct {
		out[id] = hs[k]
	}
	return out
}

// sumTerms adds a list of 1×1 tensors in a balanced tree to keep the graph
// shallow.
func sumTerms(terms []*nn.Tensor) *nn.Tensor {
	for len(terms) > 1 {
		var next []*nn.Tensor
		for i := 0; i+1 < len(terms); i += 2 {
			next = append(next, nn.Add(terms[i], terms[i+1]))
		}
		if len(terms)%2 == 1 {
			next = append(next, terms[len(terms)-1])
		}
		terms = next
	}
	return terms[0]
}

// validationHR10 embeds the validation set and measures HR@10 of
// Euclidean-space search against the exact ground truth. ok reports
// whether a validation set exists at all; with ok true, a NaN hr means
// the validation embeddings themselves went non-finite — an explicit
// divergence signal the guard in TrainCtx acts on, never a value that
// silently enters the history.
func validationHR10(m *NetEncoder, val []geo.Trajectory, truth [][]int) (hr float64, ok bool) {
	if len(val) == 0 {
		return math.NaN(), false
	}
	embs := m.EmbedAllParallel(val, 0)
	for i := range embs {
		for _, v := range embs[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return math.NaN(), true
			}
		}
	}
	returned := make([][]int, len(val))
	for i := range val {
		row := make([]float64, len(val))
		for j := range val {
			var sum float64
			for k := range embs[i] {
				d := embs[i][k] - embs[j][k]
				sum += d * d
			}
			row[j] = sum
		}
		returned[i] = eval.TopK(row, 10)
	}
	return eval.HitRatio(returned, truth, 10), true
}
