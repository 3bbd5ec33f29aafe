package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ruleErrcheck enforces the repo's error-consumption contract on every
// control-flow path: an `error` produced by a call must be consumed —
// returned, checked in a condition, passed to another function, or
// assigned to escaping storage — before the function exits. The check is
// path-sensitive over the CFG: `res, err := f(); if cond { return err }`
// is still a finding, because the path around the `if` drops the error.
//
// Three shapes are diagnosed:
//
//   - a call statement whose results include an error, with the result
//     tuple discarded entirely (`f()` as a statement, `defer f()`,
//     `go f()`);
//   - an error result explicitly discarded with `_` — allowed only under
//     a //lint:ignore errcheck directive with a written reason;
//   - an error assigned to a variable that reaches the end of the
//     function unconsumed on at least one path.
//
// Conventionally-infallible sites are excluded: the fmt.Print family,
// methods of bytes.Buffer and strings.Builder (documented to return nil
// errors), `defer x.Close()` on the read-side cleanup path, and the
// `defer os.Remove(tmp)` best-effort temp-file cleanup idiom. Errors
// captured by a closure, stored into a field/slice, or named as a result
// parameter count as consumed (they escape local reasoning).
var ruleErrcheck = &Rule{
	Name: "errcheck",
	Doc:  "every error result is consumed (returned, checked, or logged) on every control-flow path",
	Run:  runErrcheck,
}

func runErrcheck(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkErrBody(p, fn.Body, fn.Type)
				}
			case *ast.FuncLit:
				checkErrBody(p, fn.Body, fn.Type)
			}
			return true
		})
	}
}

// errDef is one tracked assignment of an error-typed call result to a
// local variable.
type errDef struct {
	obj  *types.Var
	pos  token.Pos
	name string
	call string // rendered callee, for the message
}

// errFact is the dataflow fact: the set of def indices that may be live
// and unconsumed at a program point.
type errFact map[int]bool

type errChecker struct {
	p       *Pass
	body    *ast.BlockStmt
	defs    []errDef
	results map[*types.Var]bool // named result parameters (returning them is implicit)
	// condRoot maps every sub-expression of a short-circuit If/For
	// condition to the whole condition. The CFG splits `a || b` into
	// per-leaf blocks for path accuracy, but for *consumption* the
	// idiomatic reading of `if err1 != nil || err2 != nil` is that both
	// errors are checked — so evaluating any leaf kills uses across the
	// whole condition.
	condRoot map[ast.Node]ast.Expr
}

// checkErrBody runs the errcheck analysis over one function body
// (FuncLits excluded — they are their own scope).
func checkErrBody(p *Pass, body *ast.BlockStmt, ftype *ast.FuncType) {
	c := &errChecker{p: p, body: body, results: map[*types.Var]bool{}, condRoot: map[ast.Node]ast.Expr{}}
	if ftype != nil && ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if obj, ok := p.Pkg.Info.Defs[name].(*types.Var); ok {
					c.results[obj] = true
				}
			}
		}
	}
	walkShallow(body, func(n ast.Node) {
		var cond ast.Expr
		switch s := n.(type) {
		case *ast.IfStmt:
			cond = s.Cond
		case *ast.ForStmt:
			cond = s.Cond
		}
		if cond != nil {
			root := cond
			ast.Inspect(cond, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok {
					c.condRoot[e] = root
				}
				return true
			})
		}
	})
	g := BuildCFG(body)

	// Pass 1: immediate diagnostics (dropped result tuples, `_` discards)
	// and def collection. Walk the blocks so nested literals are already
	// excluded by the CFG builder.
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			c.scanNode(n)
		}
	}
	if len(c.defs) == 0 {
		return
	}

	// Pass 2: forward may-analysis — a def in the fact set has not been
	// consumed on at least one path reaching the point.
	prob := Dataflow[errFact]{
		Bottom:   func() errFact { return errFact{} },
		Boundary: func() errFact { return errFact{} },
		Join: func(acc, src errFact) errFact {
			for k := range src {
				acc[k] = true
			}
			return acc
		},
		Equal: func(a, b errFact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(b *CFGBlock, in errFact) errFact {
			out := errFact{}
			for k := range in {
				out[k] = true
			}
			for _, n := range b.Nodes {
				c.transferNode(n, out)
			}
			return out
		},
	}
	res := SolveDataflow(g, prob)

	// Defers run at every exit: their uses consume whatever is still live.
	exit := errFact{}
	for k := range res.In[g.Exit.Index] {
		exit[k] = true
	}
	for _, d := range g.Defers {
		c.killUses(d, exit)
	}
	for i, d := range c.defs {
		if !exit[i] {
			continue
		}
		if c.results[d.obj] {
			continue // named result: returning the function returns it
		}
		c.p.Reportf(d.pos,
			"error assigned to %s (from %s) may reach the end of the function unconsumed on some path; check, return, or log it on every path",
			d.name, d.call)
	}
}

// scanNode handles immediate diagnostics and registers tracked defs.
func (c *errChecker) scanNode(n ast.Node) {
	switch s := n.(type) {
	case *ast.ExprStmt:
		c.checkDroppedCall(s.X, false)
	case *ast.DeferStmt:
		c.checkDroppedCall(s.Call, true)
	case *ast.GoStmt:
		c.checkDroppedCall(s.Call, false)
	case *ast.AssignStmt:
		c.scanAssign(s.Lhs, s.Rhs, s.Tok)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					c.scanAssign(lhs, vs.Values, token.DEFINE)
				}
			}
		}
	}
}

// checkDroppedCall reports a statement-position call whose result tuple
// (containing an error) is discarded wholesale.
func (c *errChecker) checkDroppedCall(e ast.Expr, deferred bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	t := c.p.Pkg.Info.TypeOf(call)
	if t == nil || !typeHasError(t) {
		return
	}
	if errcheckExcluded(c.p, call, deferred) {
		return
	}
	c.p.Reportf(call.Pos(), "result of %s contains an error that is dropped; handle it or suppress with a reason",
		renderCallee(call))
}

// scanAssign registers error defs and reports `_` discards of error
// results.
func (c *errChecker) scanAssign(lhs, rhs []ast.Expr, tok token.Token) {
	// pair maps each LHS position to the type of its RHS value and the
	// call producing it (nil when not a call result).
	report := func(le ast.Expr, call *ast.CallExpr) {
		if id, ok := le.(*ast.Ident); ok && id.Name == "_" {
			c.p.Reportf(le.Pos(), "error result of %s discarded as _; a deliberate discard needs //lint:ignore errcheck <reason>",
				renderCallee(call))
			return
		}
		c.trackDef(le, call)
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		call, ok := rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := c.p.Pkg.Info.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(lhs) {
			return
		}
		if errcheckExcluded(c.p, call, false) {
			return
		}
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				report(lhs[i], call)
			}
		}
		return
	}
	if len(rhs) == len(lhs) {
		for i, re := range rhs {
			call, ok := re.(*ast.CallExpr)
			if !ok {
				continue
			}
			t := c.p.Pkg.Info.TypeOf(call)
			if t == nil || !isErrorType(t) || errcheckExcluded(c.p, call, false) {
				continue
			}
			report(lhs[i], call)
		}
	}
}

// trackDef registers an ident LHS receiving an error as a dataflow def.
// Non-ident LHS (fields, index expressions) escape local tracking and
// count as consumed.
func (c *errChecker) trackDef(le ast.Expr, call *ast.CallExpr) {
	id, ok := le.(*ast.Ident)
	if !ok {
		return
	}
	var obj *types.Var
	if d, ok := c.p.Pkg.Info.Defs[id].(*types.Var); ok {
		obj = d
	} else if u, ok := c.p.Pkg.Info.Uses[id].(*types.Var); ok {
		obj = u
	}
	if obj == nil {
		return
	}
	// Only variables declared inside this body are tracked: an assignment
	// to a captured outer variable (the `err = fmt.Errorf(...)` inside a
	// recover closure) or to a parameter escapes this scope's reasoning —
	// the enclosing function's own analysis sees the variable's fate.
	if obj.Pos() < c.body.Pos() || obj.Pos() > c.body.End() {
		return
	}
	c.defs = append(c.defs, errDef{obj: obj, pos: id.Pos(), name: id.Name, call: renderCallee(call)})
}

// transferNode applies one node's effect to the fact set: uses kill,
// assignments re-gen.
func (c *errChecker) transferNode(n ast.Node, fact errFact) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.transferAssign(s.Lhs, s.Rhs, fact)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					c.transferAssign(lhs, vs.Values, fact)
				}
			}
		}
	case *ast.RangeStmt:
		// The RangeStmt lands whole in the loop head; only its range
		// expression evaluates there — the body has its own blocks, and
		// walking it here would consume uses on the zero-iteration path.
		c.killUses(s.X, fact)
		for _, le := range []ast.Expr{s.Key, s.Value} {
			if id, ok := le.(*ast.Ident); ok {
				if obj := c.objOf(id); obj != nil {
					for i, d := range c.defs {
						if d.obj == obj {
							delete(fact, i)
						}
					}
				}
			}
		}
	default:
		// A leaf of a decomposed short-circuit condition consumes across
		// the whole condition: on the path where `err1 != nil` short-
		// circuits an `|| err2 != nil`, err2 still counts as checked.
		if root, ok := c.condRoot[n]; ok {
			c.killUses(root, fact)
			return
		}
		c.killUses(n, fact)
	}
}

// transferAssign: RHS reads consume; ident LHS writes kill the old defs
// of the variable and gen the new def (when the RHS is an error call).
func (c *errChecker) transferAssign(lhs, rhs []ast.Expr, fact errFact) {
	for _, re := range rhs {
		c.killUses(re, fact)
	}
	for _, le := range lhs {
		id, ok := le.(*ast.Ident)
		if !ok {
			// A field/index target: its sub-expressions are reads.
			c.killUses(le, fact)
			continue
		}
		obj := c.objOf(id)
		if obj == nil {
			continue
		}
		// Overwrite: the previous defs of this variable are dead.
		for i, d := range c.defs {
			if d.obj == obj {
				delete(fact, i)
			}
		}
	}
	// Gen the new defs for this assignment's error results.
	for i, d := range c.defs {
		for _, le := range lhs {
			if id, ok := le.(*ast.Ident); ok && id.Pos() == d.pos {
				fact[i] = true
			}
		}
	}
}

// killUses removes every def whose variable is read anywhere inside n
// (including inside nested function literals — a closure capturing the
// error may consume it later, which counts).
func (c *errChecker) killUses(n ast.Node, fact errFact) {
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := c.p.Pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		for i, d := range c.defs {
			if d.obj == obj {
				delete(fact, i)
			}
		}
		return true
	})
}

func (c *errChecker) objOf(id *ast.Ident) *types.Var {
	if d, ok := c.p.Pkg.Info.Defs[id].(*types.Var); ok {
		return d
	}
	if u, ok := c.p.Pkg.Info.Uses[id].(*types.Var); ok {
		return u
	}
	return nil
}

// --- type and exclusion helpers ---

var errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is error or implements it.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errIface)
}

// typeHasError reports whether a call's result type (single or tuple)
// contains an error.
func typeHasError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// errcheckExcluded reports whether a call site is conventionally
// infallible: the fmt print family, bytes.Buffer / strings.Builder
// methods, and deferred Close on the cleanup path.
func errcheckExcluded(p *Pass, call *ast.CallExpr, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if deferred && sel.Sel.Name == "Close" {
		return true
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkg, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok {
			switch pkg.Imported().Path() {
			case "fmt":
				switch sel.Sel.Name {
				case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
					return true
				}
			case "os":
				// Deferred temp-file cleanup: the remove is a best-effort
				// no-op after a successful rename.
				if deferred && (sel.Sel.Name == "Remove" || sel.Sel.Name == "RemoveAll") {
					return true
				}
			}
		}
	}
	// Methods of the never-erroring in-memory writers.
	recv := p.Pkg.Info.TypeOf(sel.X)
	for recv != nil {
		ptr, ok := recv.(*types.Pointer)
		if !ok {
			break
		}
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil {
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "bytes.Buffer", "strings.Builder":
				return true
			}
		}
	}
	return false
}

// renderCallee renders the callee of a call for diagnostics ("f",
// "pkg.F", "x.M").
func renderCallee(call *ast.CallExpr) string {
	if call == nil {
		return "the call"
	}
	return types.ExprString(call.Fun)
}
