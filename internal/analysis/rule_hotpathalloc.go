package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// ruleHotpathAlloc enforces the heap half of the //perf:hotpath
// contract: a marked function must not heap-allocate — not in its own
// body (the compiler's escape analysis is the oracle, with inlined
// callees' allocations already re-attributed to the call site), and not
// through the module-local functions it calls (attributed at the call
// site via the same cross-function walk lockorder uses). Closure
// allocations ("func literal escapes to heap") count: a closure that
// escapes is a per-call allocation.
//
// Calls that leave the module (stdlib, interface methods) are opaque —
// the contract is about this module's code; a stdlib call that
// allocates in a loop is the allocinloop rule's business at the syntax
// level.
//
// Packages that cannot be compiled (fixture trees without go.mod)
// produce no findings: the contract is only checkable against the real
// compiler.
var ruleHotpathAlloc = &Rule{
	Name: "hotpathalloc",
	Doc:  "//perf:hotpath functions are heap-allocation-free, including module-local callees",
	Run:  runHotpathAlloc,
}

func runHotpathAlloc(p *Pass) {
	hot := hotpathFuncs(p.Pkg)
	if len(hot) == 0 {
		return
	}
	set := compilerDiags(p.Pkg)
	if set.err != nil {
		return
	}
	a := &allocAnalyzer{p: p, summaries: map[*types.Func][]CompilerDiag{}, inProgress: map[*types.Func]bool{}}
	for _, h := range hot {
		// Own-body allocations (including inlined callees', which the
		// compiler re-attributes to the call site inside this span).
		for _, d := range diagsInDecl(p.Pkg, set, h) {
			if d.IsHeapAlloc() {
				p.Reportf(diagPos(p.Pkg, h, d),
					"hot path %s allocates: %s", h.Name.Name, d.Message)
			}
		}
		// Non-inlined module-local callees, transitively.
		a.checkCalls(h, set)
	}
}

type allocAnalyzer struct {
	p          *Pass
	summaries  map[*types.Func][]CompilerDiag
	inProgress map[*types.Func]bool
}

// checkCalls reports, at each call site in the hot function, the first
// allocation performed (transitively) by the module-local callee.
// Inlined calls are skipped: the compiler already re-attributed their
// allocations into the caller's span, where the own-body scan found
// them; walking into them again would double-report.
func (a *allocAnalyzer) checkCalls(decl *ast.FuncDecl, set *perfDiagSet) {
	if decl.Body == nil {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(a.p.Pkg, call)
		if callee == nil || !isModuleFunc(callee, a.p.Pkg.Module) {
			return true
		}
		pkg, fd := a.p.Pkg.FuncDeclOf(callee)
		if fd == nil || wasInlinedAt(a.p.Pkg, set, call, callee) {
			return true
		}
		if allocs := a.summarize(callee, pkg, fd); len(allocs) > 0 {
			d := allocs[0]
			extra := ""
			if len(allocs) > 1 {
				extra = " (and more)"
			}
			a.p.Reportf(call.Pos(),
				"hot path %s calls %s, which allocates: %s at %s:%d%s",
				decl.Name.Name, callee.Name(), d.Message, shortFile(d), d.Line, extra)
		}
		return true
	})
}

// summarize returns (and memoizes) the heap allocations a module
// function performs, directly or through its own module-local calls.
func (a *allocAnalyzer) summarize(fn *types.Func, pkg *Package, decl *ast.FuncDecl) []CompilerDiag {
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	if a.inProgress[fn] {
		return nil // recursion: partial summary
	}
	a.inProgress[fn] = true
	defer func() { a.inProgress[fn] = false }()

	var allocs []CompilerDiag
	set := compilerDiags(pkg)
	if set.err == nil {
		for _, d := range diagsInDecl(pkg, set, decl) {
			if d.IsHeapAlloc() {
				allocs = append(allocs, d)
			}
		}
	}
	if decl.Body != nil {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pkg, call)
			if callee == nil || callee == fn || !isModuleFunc(callee, pkg.Module) {
				return true
			}
			cpkg, cfd := pkg.FuncDeclOf(callee)
			if cfd == nil {
				return true
			}
			allocs = append(allocs, a.summarize(callee, cpkg, cfd)...)
			return true
		})
	}
	a.summaries[fn] = allocs
	return allocs
}

// wasInlinedAt reports whether the compiler inlined the call at this
// site (it emits "inlining call to <callee>" there when it did). The
// emitted column may point at the selector or the paren rather than the
// expression start, so the match is by line plus callee name.
func wasInlinedAt(pkg *Package, set *perfDiagSet, call *ast.CallExpr, callee *types.Func) bool {
	pos := pkg.Fset.Position(call.Pos())
	end := pkg.Fset.Position(call.End())
	for _, d := range set.byFile[pos.Filename] {
		if d.Line >= pos.Line && d.Line <= end.Line &&
			strings.HasPrefix(d.Message, "inlining call to") &&
			strings.HasSuffix(d.Message, callee.Name()) {
			return true
		}
	}
	return false
}

// diagsInDecl returns the compiler diagnostics positioned inside a
// function declaration's source span.
func diagsInDecl(pkg *Package, set *perfDiagSet, decl *ast.FuncDecl) []CompilerDiag {
	start := pkg.Fset.Position(decl.Pos())
	end := pkg.Fset.Position(decl.End())
	return set.diagsWithin(start.Filename,
		linecol{start.Line, start.Column}, linecol{end.Line, end.Column})
}

// diagPos converts a compiler diagnostic inside decl back to a token.Pos
// so Reportf positions the finding at the allocation site itself.
func diagPos(pkg *Package, decl *ast.FuncDecl, d CompilerDiag) token.Pos {
	tf := pkg.Fset.File(decl.Pos())
	if tf == nil || d.Line < 1 || d.Line > tf.LineCount() {
		return decl.Pos()
	}
	return tf.LineStart(d.Line) + token.Pos(d.Col-1)
}

// shortFile renders a diagnostic's file as its base name for messages.
func shortFile(d CompilerDiag) string { return filepath.Base(d.File) }
