package analysis

import (
	"go/ast"
	"go/types"
)

// ruleGoroutineLeak enforces the repo's goroutine-lifecycle contract:
// every `go` statement in non-test code must be cancellable or provably
// bounded, so the engine's fan-out (and everything else that spawns)
// never strands a goroutine past its caller. A spawn is accepted when
// the spawned function shows at least one of:
//
//   - context evidence — the body (or the call's arguments) references a
//     context.Context: it can select on Done, check Err, or pass the
//     deadline on;
//   - join evidence — the body calls Done on a sync.WaitGroup, so a
//     matching Wait bounds it;
//   - drain evidence — the body receives from (or ranges over) a channel
//     that is close()d somewhere in the spawning function (including its
//     other goroutines): the worker-pool shape, bounded by the close;
//   - buffered evidence — every channel operation in the body is a send
//     on a channel created with a buffered make(chan T, n) in the
//     spawning function: the goroutine runs to completion without
//     blocking, the result channel outlives it.
//
// Anything else — a fire-and-forget spawn with unbuffered sends, or a
// body the analysis cannot resolve — is a finding; deliberate
// fire-and-forget sites carry a //lint:ignore goroutineleak with the
// reason.
var ruleGoroutineLeak = &Rule{
	Name: "goroutineleak",
	Doc:  "every go statement is cancellable or provably bounded (ctx/Done, WaitGroup join, closed or buffered channels)",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(p *Pass) {
	for _, f := range p.Pkg.Files {
		// enclosing tracks the innermost function body containing the go
		// statement, for close()/make() evidence lookup.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			scope := enclosingFuncBody(stack)
			if reason := p.goLeakEvidence(g, scope); reason == "" {
				p.Reportf(g.Pos(),
					"go statement is neither cancellable nor provably bounded: thread a ctx (select on Done), join it with a WaitGroup, or bound it with closed/buffered channels")
			}
			return true
		})
	}
}

// enclosingFuncBody returns the body of the innermost enclosing function
// (decl or literal) on the traversal stack, excluding the node itself.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// goLeakEvidence classifies a go statement; the returned string names the
// accepting evidence ("" = none, i.e. a finding).
func (p *Pass) goLeakEvidence(g *ast.GoStmt, scope *ast.BlockStmt) string {
	// Argument evidence: a context or WaitGroup handed to the spawned
	// function makes its lifecycle the callee's documented business.
	for _, arg := range g.Call.Args {
		if p.isContextValued(arg) {
			return "ctx-arg"
		}
		if p.isWaitGroupValued(arg) {
			return "wg-arg"
		}
	}
	var body *ast.BlockStmt
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		// A named function or method value: resolve the declaration when
		// it lives in this package; otherwise the spawn is opaque.
		if decl := p.localFuncDecl(g.Call.Fun); decl != nil {
			body = decl.Body
		}
	}
	if body == nil {
		return ""
	}
	if p.bodyUsesContext(body) {
		return "ctx"
	}
	if p.bodyJoinsWaitGroup(body) {
		return "waitgroup"
	}
	return p.channelEvidence(body, scope)
}

// localFuncDecl resolves a called expression to a FuncDecl in the current
// package, when possible.
func (p *Pass) localFuncDecl(fun ast.Expr) *ast.FuncDecl {
	var obj types.Object
	switch e := fun.(type) {
	case *ast.Ident:
		obj = p.Pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = p.Pkg.Info.Uses[e.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name != nil {
				if def, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok && def == fn {
					return fd
				}
			}
		}
	}
	return nil
}

// isContextValued reports whether an expression's static type is
// context.Context.
func (p *Pass) isContextValued(e ast.Expr) bool {
	t := p.Pkg.Info.TypeOf(e)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isWaitGroupValued reports whether an expression's static type is
// (a pointer to) sync.WaitGroup.
func (p *Pass) isWaitGroupValued(e ast.Expr) bool {
	t := p.Pkg.Info.TypeOf(e)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// bodyUsesContext reports whether the body references any
// context.Context-typed value (Done/Err selects, or passing ctx onward).
func (p *Pass) bodyUsesContext(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && p.isContextValued(e) {
			found = true
			return false
		}
		return true
	})
	return found
}

// bodyJoinsWaitGroup reports whether the body calls Done on a
// sync.WaitGroup (directly or deferred).
func (p *Pass) bodyJoinsWaitGroup(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if p.isWaitGroupValued(sel.X) {
			found = true
			return false
		}
		return true
	})
	return found
}

// channelEvidence checks the drain and buffered criteria: returns
// "closed-chan" when the body receives from a channel closed in the
// spawning scope, "buffered-chan" when every channel op in the body is a
// send to a buffered channel made in the spawning scope, "" otherwise.
func (p *Pass) channelEvidence(body, scope *ast.BlockStmt) string {
	closed := p.closedChannels(scope)
	buffered := p.bufferedChannels(scope)

	sawOp := false
	allBufferedSends := true
	drained := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if obj := p.chanObj(n.X); obj != nil {
				sawOp = true
				if closed[obj] {
					drained = true
				} else {
					allBufferedSends = false
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" { // receive
				sawOp = true
				if obj := p.chanObj(n.X); obj != nil && closed[obj] {
					drained = true
				} else {
					allBufferedSends = false
				}
			}
		case *ast.SendStmt:
			sawOp = true
			obj := p.chanObj(n.Chan)
			if obj == nil || !buffered[obj] {
				allBufferedSends = false
			}
		}
		return true
	})
	if drained {
		return "closed-chan"
	}
	if sawOp && allBufferedSends {
		return "buffered-chan"
	}
	return ""
}

// chanObj resolves a channel-valued expression to its variable object.
func (p *Pass) chanObj(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := p.Pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Chan); !ok {
		return nil
	}
	return v
}

// closedChannels collects the channel variables close()d anywhere in the
// scope (including inside its nested literals — a sibling goroutine
// closing the feed channel still bounds the drain).
func (p *Pass) closedChannels(scope *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	if scope == nil {
		return out
	}
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "close" {
			return true
		}
		if obj := p.chanObj(call.Args[0]); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}

// bufferedChannels collects the channel variables assigned from a
// buffered make(chan T, n) in the scope.
func (p *Pass) bufferedChannels(scope *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	if scope == nil {
		return out
	}
	ast.Inspect(scope, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, re := range as.Rhs {
			call, ok := re.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			lid, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			var obj *types.Var
			if d, ok := p.Pkg.Info.Defs[lid].(*types.Var); ok {
				obj = d
			} else if u, ok := p.Pkg.Info.Uses[lid].(*types.Var); ok {
				obj = u
			}
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Chan); ok {
				out[obj] = true
			}
		}
		return true
	})
	return out
}
