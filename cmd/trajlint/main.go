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
//	trajlint -stats ./...            # per-rule wall time and finding counts
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
	statsFlag := fs.Bool("stats", false, "report the package count and per-rule timing and findings on stderr")
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

	loader, err := analysis.NewLoader(*dirFlag)
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}
	diags, stats, err := (&analysis.Driver{Loader: loader, Rules: rules}).Run(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "trajlint:", err)
		return 2
	}
	if *statsFlag {
		printStats(stderr, stats)
	}
	relativize(diags)

	if *jsonFlag {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
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

// printStats reports the package count and a per-rule table sorted
// slowest-first: wall time (where the perf rules' compiler invocations
// show up) next to surviving finding counts.
func printStats(w io.Writer, stats analysis.DriverStats) {
	fmt.Fprintf(w, "trajlint: %d package(s)\n", stats.Packages)
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
	fmt.Fprintf(w, "trajlint: per-rule stats:\n")
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
	rules := analysis.Rules()
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	for _, r := range rules {
		fmt.Fprintf(w, "  %-14s %s\n", r.Name, r.Doc)
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
