// Package faultinject provides deterministic, seeded fault injectors —
// backend panics, artificial shard latency, and poisoned training
// parameters — plus a "faulty" search backend registered through the
// ordinary engine registry. It exists so the failure-domain contracts of
// the serving and training layers (engine.Status accounting, partial
// results under deadlines, checkpoint rollback on divergence; see
// DESIGN.md "Failure semantics & graceful degradation") are exercised by
// tests rather than hoped for in production.
//
// Everything here is test instrumentation: the faulty backend is wired
// through engine.Config.Hooks, never through production options, and
// injection schedules are either explicit (per-shard) or drawn from a
// seeded RNG so every failure scenario replays bit-for-bit. The public
// facade has no seam to it: tests above the facade (internal/serve) put
// their faults in a wrapper around a real *traj2hash.Index instead,
// passed in through the interface the layer under test consumes.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"traj2hash/internal/engine"
	"traj2hash/internal/nn"
)

// BackendName is the engine-registry name of the fault-injecting
// backend. Build an engine over it with
//
//	faultinject.Register()
//	e, _ := engine.New(engine.Options{
//	        Backends: []string{faultinject.BackendName},
//	        Shards:   3,
//	        Config:   engine.Config{Hooks: &faultinject.Faults{...}},
//	})
const BackendName = "faulty"

// Faults is the schedule a faulty backend consults. Instance numbers are
// handed out in construction order; the engine builds one backend per
// shard in shard order, so instance index == shard index — which is what
// makes "shard 1 always panics" a deterministic scenario regardless of
// goroutine scheduling.
//
// Configure the maps before handing Faults to engine.New and do not
// mutate them afterwards; the per-call chaos state is internally locked.
type Faults struct {
	// Inner names the real backend each faulty instance wraps
	// (default: euclidean-bf). It must not name the faulty backend.
	Inner string
	// PanicOn marks instance (= shard) indices whose every Search
	// panics with a "faultinject: "-attributed value.
	PanicOn map[int]bool
	// SleepOn makes the given instances sleep before answering each
	// Search — artificial shard latency for deadline tests.
	SleepOn map[int]time.Duration
	// PanicProb, when > 0, adds a seeded per-Search Bernoulli panic on
	// every instance — the chaos mode. Each instance derives its own
	// generator from Seed so the fan-out stays deterministic per shard
	// no matter how goroutines interleave.
	PanicProb float64
	// Seed seeds the chaos generators (instance i uses Seed + i).
	Seed int64

	mu   sync.Mutex
	next int
}

// instance hands out the next instance number.
func (f *Faults) instance() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.next
	f.next++
	return i
}

// Instances reports how many faulty backends have been built against
// this schedule so far (== shards × engines constructed with it).
func (f *Faults) Instances() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// registerOnce guards the engine-registry registration (the registry
// panics on duplicates, mirroring database/sql).
var registerOnce sync.Once

// Register makes the faulty backend constructible by name through the
// ordinary engine registry. Idempotent; call it from any test that wants
// the backend available.
func Register() {
	registerOnce.Do(func() {
		engine.Register(BackendName, func(cfg engine.Config) (engine.Backend, error) {
			f, ok := cfg.Hooks.(*Faults)
			if !ok || f == nil {
				return nil, fmt.Errorf("faultinject: the %q backend needs engine.Config.Hooks to carry a *faultinject.Faults", BackendName)
			}
			innerName := f.Inner
			if innerName == "" {
				innerName = engine.EuclideanBFName
			}
			if innerName == BackendName {
				return nil, fmt.Errorf("faultinject: Inner must name a real backend, not %q", BackendName)
			}
			inner, err := engine.NewBackend(innerName, cfg)
			if err != nil {
				return nil, err
			}
			inst := f.instance()
			return &faultyBackend{
				inner: inner,
				inst:  inst,
				f:     f,
				rng:   rand.New(rand.NewSource(f.Seed + int64(inst))),
			}, nil
		})
	})
}

// faultyBackend wraps a real strategy and injects the scheduled faults on
// the read path. It searches the same store as everything else in its
// shard and holds no items of its own: the failure domains under test are
// query fan-out and training, not ingestion (nor in-memory mutation — the
// durability layer has fs.go).
type faultyBackend struct {
	inner engine.Backend
	inst  int
	f     *Faults

	mu  sync.Mutex // guards rng (concurrent Searches are legal)
	rng *rand.Rand
}

// Name implements engine.Backend.
func (b *faultyBackend) Name() string { return BackendName }

// Index implements engine.Indexer by forwarding to the inner strategy,
// when that keeps an index.
func (b *faultyBackend) Index(st *engine.Store, local int) {
	if ix, ok := b.inner.(engine.Indexer); ok {
		ix.Index(st, local)
	}
}

// Search implements engine.Backend, firing the instance's scheduled
// faults before delegating: sleep first (so a slow shard can also be a
// panicking one), then the deterministic panic, then the seeded chaos
// panic.
func (b *faultyBackend) Search(st *engine.Store, q engine.Query, k int) []engine.Result {
	if d := b.f.SleepOn[b.inst]; d > 0 {
		time.Sleep(d)
	}
	if b.f.PanicOn[b.inst] {
		panic(fmt.Sprintf("faultinject: injected panic in backend instance %d", b.inst))
	}
	if b.f.PanicProb > 0 && b.chaosFires() {
		panic(fmt.Sprintf("faultinject: chaos panic in backend instance %d", b.inst))
	}
	return b.inner.Search(st, q, k)
}

// chaosFires draws one seeded Bernoulli trial under the rng lock.
func (b *faultyBackend) chaosFires() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rng.Float64() < b.f.PanicProb
}

// GradPoisoner corrupts model parameters at scheduled optimizer steps,
// simulating the NaN/Inf divergence a bad batch or an exploding gradient
// produces. Wire it into training through core.TrainData.StepHook:
//
//	p := faultinject.NewGradPoisoner(faultinject.Site{Epoch: 2, Step: 0})
//	td.StepHook = func(epoch, step int) { p.MaybePoison(epoch, step, m.Params()) }
//
// Each scheduled firing is consumed when it triggers, so a divergence
// guard that rolls an epoch back and replays it does not re-trip on the
// same site — schedule a site N times to poison N consecutive replays.
type GradPoisoner struct {
	mu    sync.Mutex
	sites map[Site]int
	fired int
}

// Site is one (epoch, step) scheduling coordinate of a GradPoisoner.
type Site struct {
	Epoch int
	Step  int
}

// NewGradPoisoner schedules a poisoning at each given site; repeating a
// site arms it that many times.
func NewGradPoisoner(sites ...Site) *GradPoisoner {
	g := &GradPoisoner{sites: map[Site]int{}}
	for _, s := range sites {
		g.sites[s]++
	}
	return g
}

// MaybePoison fires if (epoch, step) is armed: it writes NaN into the
// first element of every parameter tensor and consumes one charge.
// Reports whether it fired.
func (g *GradPoisoner) MaybePoison(epoch, step int, params []*nn.Tensor) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Site{Epoch: epoch, Step: step}
	if g.sites[s] == 0 {
		return false
	}
	g.sites[s]--
	g.fired++
	for _, p := range params {
		if len(p.Data) > 0 {
			p.Data[0] = math.NaN()
		}
	}
	return true
}

// Fired reports how many poisonings have triggered.
func (g *GradPoisoner) Fired() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fired
}
