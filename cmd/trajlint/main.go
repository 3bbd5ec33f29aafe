// Command trajlint runs the repo's static-analysis rule suite
// (internal/analysis) over the module: stdlib-only, no go/packages, no
// external analyzers. It is a CI gate with meaningful exit codes:
//
//	0  clean — no diagnostic survived the //lint:ignore suppressions
//	1  findings — the analysis ran and reported at least one diagnostic
//	2  trajlint itself failed — bad flags, unknown rule, unloadable code
//
//	trajlint ./...                   # whole module
//	trajlint -rules deferunlock ./internal/engine
//	trajlint -json ./... | jq .
//	trajlint -fix ./...              # apply mechanical fixes, re-lint
//	trajlint -cache bin/trajlint-cache ./...   # warm runs skip unchanged packages
//
// Diagnostics print as "file:line:col rule: message" with paths relative
// to the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"traj2hash/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trajlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesFlag := fs.String("rules", "", "comma-separated rule names to run (default: all)")
	jsonFlag := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	dirFlag := fs.String("C", ".", "module directory to lint (must contain go.mod)")
	fixFlag := fs.Bool("fix", false, "apply suggested fixes, then re-analyze and report what remains")
	cacheFlag := fs.String("cache", "", "diagnostic cache directory (empty disables the cache)")
	jobsFlag := fs.Int("jobs", 0, "analysis parallelism (0 = GOMAXPROCS)")
	statsFlag := fs.Bool("stats", false, "report package/cache counts and per-rule timing on stderr")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var ruleNames []string
	if *rulesFlag != "" {
		for _, n := range strings.Split(*rulesFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				ruleNames = append(ruleNames, n)
			}
		}
	}
	rules, err := analysis.SelectRules(ruleNames)
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}

	// analyze runs one full pass with a fresh loader — after -fix
	// rewrites files, stale syntax trees must not leak into the re-run.
	analyze := func() ([]analysis.Diagnostic, analysis.DriverStats, error) {
		loader, err := analysis.NewLoader(*dirFlag)
		if err != nil {
			return nil, analysis.DriverStats{}, err
		}
		drv := &analysis.Driver{Loader: loader, Rules: rules, CacheDir: *cacheFlag, Jobs: *jobsFlag}
		return drv.Run(fs.Args())
	}

	diags, stats, err := analyze()
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}
	if *statsFlag {
		printStats(stderr, stats)
	}

	if *fixFlag {
		res, err := analysis.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, "trajlint:", err)
			return 2
		}
		if res.Applied > 0 {
			fmt.Fprintf(stderr, "trajlint: applied %d fix(es) across %d file(s)", res.Applied, len(res.Changed))
			if res.Skipped > 0 {
				fmt.Fprintf(stderr, " (%d overlapping fix(es) skipped)", res.Skipped)
			}
			fmt.Fprintln(stderr)
			// Changed files mean changed content hashes, so the re-run
			// re-analyzes exactly the affected packages even with the
			// cache on.
			if diags, _, err = analyze(); err != nil {
				fmt.Fprintln(stderr, "trajlint:", err)
				return 2
			}
		}
	}
	relativize(diags)

	if *jsonFlag {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "trajlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonFlag {
			fmt.Fprintf(stderr, "trajlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// printStats reports package/cache counts and a per-rule table sorted
// slowest-first: wall time over cold packages (where the perf rules'
// compiler invocations show up, and why a warm cache run shows dashes)
// next to surviving finding counts over the whole run (cache entries
// replay final diagnostics, so counts are complete even when timing
// is not).
func printStats(w io.Writer, stats analysis.DriverStats) {
	fmt.Fprintf(w, "trajlint: %d package(s), %d cached, %d analyzed\n",
		stats.Packages, stats.CacheHits, stats.CacheMisses)
	names := map[string]bool{}
	for name := range stats.RuleTime {
		names[name] = true
	}
	for name, n := range stats.RuleFindings {
		if n > 0 {
			names[name] = true
		}
	}
	if len(names) == 0 {
		return
	}
	type rt struct {
		name string
		d    time.Duration
		n    int
	}
	var rts []rt
	for name := range names {
		rts = append(rts, rt{name, stats.RuleTime[name], stats.RuleFindings[name]})
	}
	sort.Slice(rts, func(i, j int) bool {
		if rts[i].d != rts[j].d {
			return rts[i].d > rts[j].d
		}
		return rts[i].name < rts[j].name
	})
	fmt.Fprintf(w, "trajlint: per-rule stats (timing covers cold packages only):\n")
	for _, r := range rts {
		t := "-"
		if r.d > 0 {
			t = r.d.Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "  %-14s %-12s %d finding(s)\n", r.name, t, r.n)
	}
}

// relativize rewrites absolute diagnostic paths relative to the working
// directory, keeping output stable across checkouts.
func relativize(diags []analysis.Diagnostic) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(wd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, `usage: trajlint [flags] [packages]

trajlint enforces the repo's correctness contracts with a stdlib-only
analyzer suite. Packages default to ./...; a trailing /... walks
directories (testdata, vendor, and hidden directories are skipped).

Exit codes: 0 clean, 1 findings, 2 trajlint failure (bad flags,
unknown rule, unloadable packages).

Flags:
`)
	fs.PrintDefaults()
	fmt.Fprintf(w, "\nRules:\n")
	var rules []*analysis.Rule
	rules = append(rules, analysis.Rules()...)
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	for _, r := range rules {
		fmt.Fprintf(w, "  %-14s %s\n", r.Name, r.Doc)
	}
	fmt.Fprintf(w, `
Fixable rules (run with -fix to apply mechanically):
`)
	for _, r := range rules {
		if r.Fix != "" {
			fmt.Fprintf(w, "  %-14s %s\n", r.Name, r.Fix)
		}
	}
	fmt.Fprintf(w, `
Suppressions (reason is mandatory; a missing reason, an unknown rule, or
a suppression that no longer matches any finding is itself a diagnostic):
  //lint:ignore <rule> <reason>        suppresses <rule> on this line and the next
  //lint:file-ignore <rule> <reason>   suppresses <rule> in the whole file

Performance contracts (reason is mandatory; the directive must sit in a
function's doc comment — anywhere else it is a diagnostic):
  //perf:hotpath <reason>   the function must stay allocation-free and
                            bounds-check-free in loops; enforced by the
                            hotpathalloc, hotpathbce, and allocinloop
                            rules against real compiler diagnostics
`)
}
