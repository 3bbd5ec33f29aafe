package analysis

// The driver behind cmd/trajlint and the tests: expand the patterns,
// load every matched package, run the rules over the packages in
// parallel, and sort the diagnostics. Loading is sequential — the
// Loader's FileSet and memo table are shared state, and type-checking
// forces dependencies in order anyway. Analysis only reads the loaded
// trees, so it fans out across packages, GOMAXPROCS at a time.
import (
	"runtime"
	"sync"
	"time"
)

// Driver runs a rule suite over module packages.
type Driver struct {
	Loader *Loader
	Rules  []*Rule
}

// DriverStats reports what one Run did.
type DriverStats struct {
	// Packages is the number of packages matched by the patterns.
	Packages int
	// RuleTime accumulates wall time per rule across every package.
	// `trajlint -stats` prints it; the perf rules' compile time shows
	// up here.
	RuleTime map[string]time.Duration
	// RuleFindings counts the surviving diagnostics per rule across the
	// whole run.
	RuleFindings map[string]int
}

// Run expands patterns, loads and analyzes every matched package, and
// returns the diagnostics in the canonical sort order (empty, not nil,
// when there are none).
func (d *Driver) Run(patterns []string) ([]Diagnostic, DriverStats, error) {
	var stats DriverStats
	paths, err := d.Loader.ExpandPatterns(patterns)
	if err != nil {
		return nil, stats, err
	}
	stats.Packages = len(paths)
	pkgs := make([]*Package, len(paths))
	for i, p := range paths {
		if pkgs[i], err = d.Loader.Load(p); err != nil {
			return nil, stats, err
		}
	}

	results := make([][]Diagnostic, len(pkgs))
	stats.RuleTime = map[string]time.Duration{}
	var timeMu sync.Mutex
	observe := func(rule string, dur time.Duration) {
		timeMu.Lock()
		defer timeMu.Unlock()
		stats.RuleTime[rule] += dur
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range pkgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = runPackageObserved(pkgs[i], d.Rules, observe)
		}(i)
	}
	wg.Wait()

	all := []Diagnostic{}
	for _, r := range results {
		all = append(all, r...)
	}
	SortDiagnostics(all)
	stats.RuleFindings = map[string]int{}
	for _, d := range all {
		stats.RuleFindings[d.Rule]++
	}
	return all, stats, nil
}
