package analysis

import (
	"go/ast"
	"go/types"
)

// ruleCtxFirst enforces the repo's context-plumbing conventions, the ones
// the engine's cancellation contract rests on (DESIGN.md "Failure
// semantics & graceful degradation"):
//
//   - a context.Context parameter must be the first parameter of its
//     function, method, or function type (the stdlib convention, and what
//     keeps call sites grep-able for deadline propagation), and
//   - a context.Context must never be stored in a struct field — contexts
//     are call-scoped; a stored context outlives its cancellation scope
//     and silently decouples work from the caller's deadline.
//
// Func-typed struct fields taking a context are fine (the context still
// flows per call); only fields whose own type is context.Context (or an
// alias of it) are flagged.
var ruleCtxFirst = &Rule{
	Name: "ctxfirst",
	Doc:  "context.Context is the first parameter and is never stored in a struct (cancellation contract)",
	Run:  runCtxFirst,
}

func runCtxFirst(p *Pass) {
	for _, f := range p.Pkg.Files {
		// Local names binding the context package in this file — the
		// syntactic fallback when type information did not resolve.
		ctxNames := map[string]bool{}
		for _, imp := range f.Imports {
			if importPath(imp) != "context" {
				continue
			}
			name := "context"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name != "_" && name != "." {
				ctxNames[name] = true
			}
		}
		isCtx := func(expr ast.Expr) bool { return isContextType(p, ctxNames, expr) }
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncType:
				checkCtxParams(p, n, isCtx)
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if isCtx(field.Type) {
						p.Reportf(field.Pos(),
							"context.Context stored in a struct field; contexts are call-scoped — pass ctx as the first parameter instead")
					}
				}
			}
			return true
		})
	}
}

// checkCtxParams reports context-typed parameters that are not in the
// first parameter group of ft. (Multiple contexts in the leading group —
// `func(ctx, ctx2 context.Context)` — are tolerated; the convention under
// enforcement is position, not arity.)
func checkCtxParams(p *Pass, ft *ast.FuncType, isCtx func(ast.Expr) bool) {
	if ft.Params == nil {
		return
	}
	for gi, group := range ft.Params.List {
		if gi == 0 || !isCtx(group.Type) {
			continue
		}
		name := "ctx"
		if len(group.Names) > 0 {
			name = group.Names[0].Name
		}
		p.Reportf(group.Pos(),
			"context.Context parameter %q is not the first parameter; make ctx the first parameter (stdlib convention)", name)
	}
}

// isContextType reports whether expr denotes context.Context, preferring
// resolved type information and falling back to the syntactic
// `context.Context` selector when the checker could not resolve the
// expression.
func isContextType(p *Pass, ctxNames map[string]bool, expr ast.Expr) bool {
	if tv, ok := p.Pkg.Info.Types[expr]; ok && tv.Type != nil {
		if named, ok := tv.Type.(*types.Named); ok {
			obj := named.Obj()
			return obj != nil && obj.Name() == "Context" &&
				obj.Pkg() != nil && obj.Pkg().Path() == "context"
		}
		return false
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	return ok && ctxNames[ident.Name]
}
