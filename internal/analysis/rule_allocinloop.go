package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ruleAllocInLoop is the syntax-level half of the //perf:hotpath
// contract: inside the for/range bodies of a marked function it flags
// the constructs that allocate per iteration regardless of what escape
// analysis concludes — because they allocate in a callee the compiler
// cannot see through, or because the idiom is wrong even when a
// particular build happens to keep it on the stack:
//
//   - append to a locally declared slice with no visible make-with-cap
//     (growth reallocations scale with the loop trip count; appends into
//     parameters or fields are the caller's contract and stay legal, so
//     reusable-buffer APIs remain expressible)
//   - fmt.* calls (every operand boxes into an interface)
//   - string concatenation (+ / += on strings builds a fresh string per
//     iteration)
//   - make / new (an allocation request per iteration by construction)
//   - explicit conversions to interface types (boxing)
//
// Unlike hotpathalloc/hotpathbce this rule needs no compiler run, so it
// also fires in fixture trees and costs no compile.
var ruleAllocInLoop = &Rule{
	Name: "allocinloop",
	Doc:  "no per-iteration allocation idioms inside //perf:hotpath loops",
	Run:  runAllocInLoop,
}

func runAllocInLoop(p *Pass) {
	for _, h := range hotpathFuncs(p.Pkg) {
		if h.Body == nil {
			continue
		}
		preallocated, local := slicePreallocs(p, h)
		ast.Inspect(h.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			checkLoopBody(p, h.Name.Name, body, preallocated, local)
			return false // checkLoopBody recurses into nested loops itself
		})
	}
}

// slicePreallocs scans a function for local slice declarations,
// classifying each object as preallocated (make with an explicit
// capacity or length expression) or not. Only locally declared slices
// are tracked: appends into parameters, results, or fields grow storage
// the caller owns, which is exactly how reusable-buffer APIs work.
func slicePreallocs(p *Pass, decl *ast.FuncDecl) (preallocated, local map[types.Object]bool) {
	preallocated = map[types.Object]bool{}
	local = map[types.Object]bool{}
	record := func(ident *ast.Ident, rhs ast.Expr) {
		obj := p.Pkg.Info.Defs[ident]
		if obj == nil {
			obj = p.Pkg.Info.Uses[ident]
		}
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		local[obj] = true
		if isMakeWithSize(rhs) || isReslice(rhs) {
			preallocated[obj] = true
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				ident, ok := lhs.(*ast.Ident)
				if !ok || ident.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				record(ident, rhs)
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, ident := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					record(ident, rhs)
				}
			}
		}
		return true
	})
	return preallocated, local
}

// isReslice reports whether an expression is a slice expression
// (x[:0], buf[a:b], ...): the backing storage already exists and belongs
// to whatever was resliced, so appending into the local alias grows
// under that owner's amortized contract — the reusable-buffer idiom.
func isReslice(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.SliceExpr)
	return ok
}

// isMakeWithSize reports whether an expression is make(T, n) or
// make(T, n, c) — storage sized up front rather than grown by append.
func isMakeWithSize(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && fn.Name == "make" && len(call.Args) >= 2
}

// checkLoopBody walks one loop body (descending into nested loops,
// which are just as hot) and reports each per-iteration allocation
// idiom once, at its own position.
func checkLoopBody(p *Pass, fnName string, body *ast.BlockStmt, preallocated, local map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body runs when called, not per iteration here
		case *ast.CallExpr:
			checkCall(p, fnName, n, preallocated, local)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(p, n) {
				p.Reportf(n.OpPos, "hot loop in %s concatenates strings with +; build the string outside the loop or use an index-based key", fnName)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(p, n.Lhs[0]) {
				p.Reportf(n.TokPos, "hot loop in %s grows a string with +=; build the string outside the loop", fnName)
			}
		}
		return true
	})
}

// checkCall classifies one call inside a hot loop: builtin make/new,
// fmt.*, append without preallocation, or an explicit conversion to an
// interface type.
func checkCall(p *Pass, fnName string, call *ast.CallExpr, preallocated, local map[types.Object]bool) {
	// Explicit interface conversion: T(x) where T is an interface type.
	if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) {
			p.Reportf(call.Pos(), "hot loop in %s converts to interface type %s (boxes the operand); keep the concrete type through the loop", fnName, types.TypeString(tv.Type, types.RelativeTo(p.Pkg.Types)))
		}
		return
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fn.Name {
		case "make":
			p.Reportf(call.Pos(), "hot loop in %s calls make per iteration; hoist the allocation above the loop or reuse a buffer", fnName)
		case "new":
			p.Reportf(call.Pos(), "hot loop in %s calls new per iteration; hoist the allocation above the loop", fnName)
		case "append":
			checkAppend(p, fnName, call, preallocated, local)
		}
	case *ast.SelectorExpr:
		if ident, ok := fn.X.(*ast.Ident); ok {
			if pkgName, ok := p.Pkg.Info.Uses[ident].(*types.PkgName); ok && pkgName.Imported().Path() == "fmt" {
				p.Reportf(call.Pos(), "hot loop in %s calls fmt.%s (boxes every operand); format outside the loop or use strconv", fnName, fn.Sel.Name)
			}
		}
	}
}

// checkAppend flags append targeting a locally declared slice that was
// never preallocated with a capacity — the growth pattern that turns a
// hot loop into O(log n) reallocations plus copies.
func checkAppend(p *Pass, fnName string, call *ast.CallExpr, preallocated, local map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	ident, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return // appends into fields/elements: storage owned elsewhere
	}
	obj := p.Pkg.Info.Uses[ident]
	if obj == nil {
		obj = p.Pkg.Info.Defs[ident]
	}
	if obj == nil || !local[obj] || preallocated[obj] {
		return
	}
	p.Reportf(call.Pos(), "hot loop in %s appends to %s, declared without preallocated capacity; use make(T, 0, n) or a caller-provided buffer", fnName, ident.Name)
}

// isStringExpr reports whether an expression's type is (an alias of)
// string. Untyped constants folded at compile time don't allocate, so
// only typed string operands count.
func isStringExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.String
}
