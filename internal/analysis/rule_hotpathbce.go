package analysis

import (
	"go/ast"
	"go/types"
)

// ruleHotpathBCE enforces the bounds-check half of the //perf:hotpath
// contract: inside the loops of a marked function, no bounds check may
// survive the compiler's bounds-check-elimination pass ("Found
// IsInBounds" / "Found IsSliceInBounds" from -d=ssa/check_bce). A
// surviving check in a scan loop is a branch per element on the hottest
// instruction stream in the system.
//
// The report names the index expression at the diagnostic's position
// and suggests the standard hoist: prove the bound once before the loop
// (`_ = s[len(s)-1]`, or reslice `b = b[:len(a)]` when two slices are
// indexed in lockstep) so the prover can discharge the per-iteration
// checks. The hoist is suggested, not auto-applied: inserting a bounds
// assertion changes where an out-of-range panic fires, which is a
// semantic decision the author must make.
//
// Checks outside loops are ignored — a one-time check at function entry
// costs nothing measurable; the contract is about per-element work.
var ruleHotpathBCE = &Rule{
	Name: "hotpathbce",
	Doc:  "//perf:hotpath loop bodies are bounds-check-free under the compiler's BCE pass",
	Run:  runHotpathBCE,
}

func runHotpathBCE(p *Pass) {
	hot := hotpathFuncs(p.Pkg)
	if len(hot) == 0 {
		return
	}
	set := compilerDiags(p.Pkg)
	if set.err != nil {
		return
	}
	for _, h := range hot {
		if h.Body == nil {
			continue
		}
		loops := loopSpans(p.Pkg, h.Body)
		seen := map[linecol]bool{}
		for _, d := range diagsInDecl(p.Pkg, set, h) {
			if !d.IsBoundsCheck() {
				continue
			}
			at := linecol{d.Line, d.Col}
			if seen[at] || !inSpans(loops, at) {
				continue
			}
			seen[at] = true
			expr := indexExprAt(p.Pkg, h, at)
			what := "an index expression"
			if expr != "" {
				what = expr
			}
			p.Reportf(diagPos(p.Pkg, h, d),
				"hot loop in %s keeps a bounds check on %s; hoist the proof above the loop (e.g. `_ = s[len(s)-1]`, or reslice `b = b[:len(a)]` for lockstep indexing)",
				h.Name.Name, what)
		}
	}
}

// loopSpans collects the (line, col) spans of every for/range body in
// the function, including nested ones.
func loopSpans(pkg *Package, body *ast.BlockStmt) [][2]linecol {
	var spans [][2]linecol
	add := func(n ast.Node) {
		a := pkg.Fset.Position(n.Pos())
		b := pkg.Fset.Position(n.End())
		spans = append(spans, [2]linecol{{a.Line, a.Column}, {b.Line, b.Column}})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			add(n.Body)
		case *ast.RangeStmt:
			add(n.Body)
		}
		return true
	})
	return spans
}

func inSpans(spans [][2]linecol, p linecol) bool {
	for _, s := range spans {
		if !p.before(s[0]) && !s[1].before(p) {
			return true
		}
	}
	return false
}

// indexExprAt renders the innermost index or slice expression enclosing
// the diagnostic position, for a finding message that names the actual
// access ("b.Words[i]") instead of a bare position. Empty when no index
// expression encloses the position (a check attributed to an inlined
// call, say).
func indexExprAt(pkg *Package, decl *ast.FuncDecl, at linecol) string {
	var best ast.Expr
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.IndexExpr, *ast.SliceExpr:
			a := pkg.Fset.Position(n.Pos())
			b := pkg.Fset.Position(n.End())
			from := linecol{a.Line, a.Column}
			to := linecol{b.Line, b.Column}
			if !at.before(from) && !to.before(at) {
				best = n.(ast.Expr) // innermost wins: Inspect descends
			}
		}
		return true
	})
	if best == nil {
		return ""
	}
	return types.ExprString(best)
}
