// Package analysis is a small, stdlib-only static-analysis framework plus
// the repo-specific rule suite behind cmd/trajlint. It loads packages with
// go/parser and go/types (no golang.org/x/tools dependency — the repo is
// stdlib-only by contract: go.mod requires nothing, so the go tool itself
// refuses any other import), walks the syntax trees, and emits
// "file:line:col rule: message" diagnostics.
//
// The rules encode the correctness contracts the sharded query engine and
// the paper reproduction rest on:
//
//	noglobalrand  — reproducibility: no math/rand package-level state
//	floatcompare  — no exact ==/!= on floats outside justified sites
//	panicattrib   — panics in internal/ carry a "pkg: " prefix
//	deferunlock   — Lock/RLock paired with defer Unlock/RUnlock
//	exporteddoc   — the public facade stays documented
//	ctxfirst      — context.Context is the first parameter, never a field
//
// Three CFG/dataflow rules (cfg.go, dataflow.go) follow values and locks
// across paths and calls:
//
//	errcheck      — every error is consumed on every path
//	lockorder     — no cycle in the cross-function lock-acquisition graph
//	goroutineleak — every go statement has a way to end
//
// On top of those, three performance-contract rules enforce the
// //perf:hotpath directive (see funcdirective.go and perfdiag.go):
//
//	hotpathalloc  — marked functions are heap-allocation-free (compiler
//	                escape analysis is the oracle), including their
//	                module-local callees
//	hotpathbce    — no bounds checks survive BCE inside marked loops
//	allocinloop   — no per-iteration allocation idioms (append without
//	                cap, fmt.*, string concat, make/new, interface
//	                boxing) inside marked loops, judged syntactically
//
// Determinism and the stdlib-only constraint have no rule here: the
// byte-identity tests pin the first at runtime, and the go tool enforces
// the second (see DESIGN.md §7 for the audit behind each rule).
//
// Deliberate violations are suppressed in place with
//
//	//lint:ignore <rule> <reason>       (this line and the next)
//	//lint:file-ignore <rule> <reason>  (the whole file)
//
// A reason is mandatory: a suppression without one is itself a
// diagnostic, as is one naming a rule that does not exist.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Rule is one named check. Run inspects the Pass's package and reports
// findings through Pass.Reportf.
type Rule struct {
	// Name identifies the rule in diagnostics, -rules filters, and
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the contract the rule guards.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass)
}

// Pass carries one package through one rule. Rules read the loaded
// syntax, type information, and module metadata, and report findings.
type Pass struct {
	Rule *Rule
	Pkg  *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.Rule.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Rules returns the full rule suite in a deterministic order: the
// syntactic/type rules first, then the CFG/dataflow rules (errcheck,
// lockorder, goroutineleak — see cfg.go and dataflow.go).
func Rules() []*Rule {
	return []*Rule{
		ruleNoGlobalRand,
		ruleFloatCompare,
		rulePanicAttrib,
		ruleDeferUnlock,
		ruleExportedDoc,
		ruleCtxFirst,
		ruleErrcheck,
		ruleLockOrder,
		ruleGoroutineLeak,
		ruleHotpathAlloc,
		ruleHotpathBCE,
		ruleAllocInLoop,
	}
}

// RuleNames returns the names of every rule in the suite, sorted.
func RuleNames() []string {
	var names []string
	for _, r := range Rules() {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return names
}

// SelectRules resolves a list of rule names against the suite, erroring
// on unknown names. An empty list selects every rule.
func SelectRules(names []string) ([]*Rule, error) {
	all := Rules()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Rule, len(all))
	for _, r := range all {
		byName[r.Name] = r
	}
	var out []*Rule
	for _, n := range names {
		r, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q (have %v)", n, RuleNames())
		}
		out = append(out, r)
	}
	return out, nil
}

// runPackageObserved is one package's full analysis: rules, suppression
// filtering, directive validation (both //lint: and //perf:), and the
// staleness scan. The result is unsorted. observe receives each rule's
// wall time for `trajlint -stats`; it must be safe for concurrent use,
// since the driver analyzes packages in parallel.
func runPackageObserved(pkg *Package, rules []*Rule, observe func(rule string, d time.Duration)) []Diagnostic {
	var raw []Diagnostic
	for _, r := range rules {
		start := time.Now()
		r.Run(&Pass{Rule: r, Pkg: pkg, diags: &raw})
		observe(r.Name, time.Since(start))
	}
	selected := make(map[string]bool, len(rules))
	for _, r := range rules {
		selected[r.Name] = true
	}
	sup, directiveDiags := collectSuppressions(pkg)
	var diags []Diagnostic
	for _, d := range raw {
		if !sup.suppresses(d) {
			diags = append(diags, d)
		}
	}
	diags = append(diags, directiveDiags...)
	diags = append(diags, sup.stale(pkg, selected)...)
	diags = append(diags, collectHotpathDirectives(pkg)...)
	return diags
}

// SortDiagnostics orders diags by (file, line, col, rule) — the canonical
// presentation order the driver emits.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// inspect walks every file of the pass's package in source order, calling
// fn for each node; fn returning false prunes the subtree.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// isInternalPath reports whether an import path has an "internal" path
// segment — the scope of the panicattrib rule, and the exemption of the
// exporteddoc rule.
func isInternalPath(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" {
			return true
		}
	}
	return false
}
