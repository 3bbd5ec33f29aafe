package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"traj2hash/internal/dist"
	"traj2hash/internal/faultinject"
	"traj2hash/internal/geo"
)

// trainFixture builds a deterministic tiny training setup; every test in
// this file that needs to compare runs bitwise uses the same seeds.
func trainFixture(t *testing.T) (Config, []geo.Trajectory, TrainData) {
	t.Helper()
	cfg := tinyConfig()
	seeds := genTrajs(24, 101)
	val := genTrajs(16, 102)
	corpus := genTrajs(60, 103)
	space := append(append(append([]geo.Trajectory{}, seeds...), val...), corpus...)
	td := TrainData{Seeds: seeds, Validation: val, Corpus: corpus, F: dist.FrechetDist}
	return cfg, space, td
}

// paramBits flattens a model's parameters into their IEEE-754 bit
// patterns, the representation under which "bitwise identical" is tested.
func paramBits(m *Model) []uint64 {
	var out []uint64
	for _, p := range m.Params() {
		for _, v := range p.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	var last *Checkpoint
	td.CheckpointEvery = 2
	td.OnCheckpoint = func(c *Checkpoint) error { last = c; return nil }
	if _, err := m.Train(td); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint emitted")
	}
	var buf bytes.Buffer
	if err := last.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last, got) {
		t.Error("checkpoint did not survive a Save/Load round trip")
	}
}

func TestCheckpointFileAtomicAndVersioned(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	var last *Checkpoint
	td.CheckpointEvery = 1
	td.OnCheckpoint = func(c *Checkpoint) error { last = c; return nil }
	if _, err := m.Train(td); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveCheckpointFile(path, last); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last, got) {
		t.Error("file round trip lost data")
	}

	// A future version must be rejected, not mis-decoded.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpointMeta{Version: CheckpointVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(&buf); err == nil {
		t.Error("unknown checkpoint version accepted")
	}
}

// TestResumeBitwiseIdentical is acceptance scenario (c): a run
// interrupted at an epoch boundary and resumed from its checkpoint must
// finish with exactly the parameters and history of an uninterrupted run.
func TestResumeBitwiseIdentical(t *testing.T) {
	cfg, space, td := trainFixture(t)

	// Uninterrupted reference run, capturing the epoch-2 checkpoint.
	m1, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	var atTwo *Checkpoint
	tdA := td
	tdA.CheckpointEvery = 2
	tdA.OnCheckpoint = func(c *Checkpoint) error {
		if c.Epoch == 2 {
			atTwo = c
		}
		return nil
	}
	h1, err := m1.Train(tdA)
	if err != nil {
		t.Fatal(err)
	}
	if atTwo == nil {
		t.Fatal("no epoch-2 checkpoint captured")
	}

	// Resumed run: a fresh model (same config and study space, as a real
	// restart would construct) continuing from the checkpoint.
	m2, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	tdB := td
	tdB.Resume = atTwo
	h2, err := m2.Train(tdB)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(paramBits(m1), paramBits(m2)) {
		t.Error("resumed run's final parameters are not bitwise identical to the uninterrupted run")
	}
	if !reflect.DeepEqual(h1.EpochLoss, h2.EpochLoss) {
		t.Errorf("epoch losses diverged:\nfull   %v\nresume %v", h1.EpochLoss, h2.EpochLoss)
	}
	if !reflect.DeepEqual(h1.ValHR10, h2.ValHR10) {
		t.Errorf("validation history diverged:\nfull   %v\nresume %v", h1.ValHR10, h2.ValHR10)
	}
	if h1.BestEpoch != h2.BestEpoch {
		t.Errorf("best epoch %d vs %d", h1.BestEpoch, h2.BestEpoch)
	}
}

func TestResumeRejectsArchitectureMismatch(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	var last *Checkpoint
	td.CheckpointEvery = 1
	td.OnCheckpoint = func(c *Checkpoint) error { last = c; return nil }
	if _, err := m.Train(td); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.HashBits = 32 // different architecture
	m2, err := New(other, space)
	if err != nil {
		t.Fatal(err)
	}
	td2 := td
	td2.Resume = last
	if _, err := m2.Train(td2); err == nil {
		t.Error("checkpoint from a different architecture accepted")
	}
}

// TestDivergenceRollbackReplays poisons the parameters at the start of
// epoch 2; the guard must roll back to the epoch-2 boundary, replay it
// cleanly at half the learning rate, and finish with a finite history.
func TestDivergenceRollbackReplays(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	p := faultinject.NewGradPoisoner(faultinject.Site{Epoch: 2, Step: 0})
	td.StepHook = func(epoch, step int) { p.MaybePoison(epoch, step, m.Params()) }
	h, err := m.Train(td)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fired() != 1 {
		t.Fatalf("poisoner fired %d times, want 1", p.Fired())
	}
	if !reflect.DeepEqual(h.Diverged, []int{2}) {
		t.Errorf("Diverged = %v, want [2]", h.Diverged)
	}
	if len(h.EpochLoss) != cfg.Epochs {
		t.Fatalf("history has %d epochs, want %d", len(h.EpochLoss), cfg.Epochs)
	}
	for e, l := range h.EpochLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Errorf("epoch %d loss %v leaked into the history", e, l)
		}
	}
	for e, hr := range h.ValHR10 {
		if math.IsNaN(hr) {
			t.Errorf("epoch %d HR@10 is NaN despite the guard", e)
		}
	}
	if paramsNonFinite(m.Params()) {
		t.Error("final parameters are non-finite")
	}
}

// TestErrDivergedWithoutCheckpoint: poisoning the very first epoch leaves
// nothing to roll back to — training must fail with ErrDiverged instead
// of emitting NaN metrics.
func TestErrDivergedWithoutCheckpoint(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	p := faultinject.NewGradPoisoner(faultinject.Site{Epoch: 0, Step: 0})
	td.StepHook = func(epoch, step int) { p.MaybePoison(epoch, step, m.Params()) }
	h, err := m.Train(td)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if h == nil || !reflect.DeepEqual(h.Diverged, []int{0}) {
		t.Errorf("history should flag epoch 0 as diverged, got %+v", h)
	}
}

// TestRollbackBudgetExhausted: a site that re-poisons every replay must
// exhaust MaxRollbacks and surface ErrDiverged.
func TestRollbackBudgetExhausted(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	site := faultinject.Site{Epoch: 2, Step: 0}
	p := faultinject.NewGradPoisoner(site, site, site, site)
	td.StepHook = func(epoch, step int) { p.MaybePoison(epoch, step, m.Params()) }
	td.MaxRollbacks = 3
	_, err = m.Train(td)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged after exhausting rollbacks", err)
	}
	if p.Fired() != 4 {
		t.Errorf("poisoner fired %d times, want 4 (original + 3 replays)", p.Fired())
	}
}

// TestCancelMidTrainingFlushesCheckpoint: canceling the context mid-epoch
// surfaces the cancellation and flushes the last completed-epoch
// checkpoint, so an interrupt costs at most one epoch.
func TestCancelMidTrainingFlushesCheckpoint(t *testing.T) {
	cfg, space, td := trainFixture(t)
	m, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flushed *Checkpoint
	td.OnCheckpoint = func(c *Checkpoint) error { flushed = c; return nil }
	td.StepHook = func(epoch, step int) {
		if epoch == 2 && step == 0 {
			cancel()
		}
	}
	_, err = m.TrainCtx(ctx, td)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a wrapped context.Canceled", err)
	}
	if flushed == nil {
		t.Fatal("no checkpoint flushed on cancellation")
	}
	if flushed.Epoch != 2 {
		t.Errorf("flushed checkpoint at epoch %d, want 2 (the last completed boundary)", flushed.Epoch)
	}

	// The flushed checkpoint must actually resume.
	m2, err := New(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	td2 := td
	td2.OnCheckpoint = nil
	td2.StepHook = nil
	td2.Resume = flushed
	if _, err := m2.Train(td2); err != nil {
		t.Fatalf("resume from the interrupt checkpoint failed: %v", err)
	}
}
