package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ruleLockOrder builds a cross-function lock-acquisition graph over the
// module and diagnoses cycles as potential deadlocks. A node is a lock
// identity — a struct field (`engine.shard.mu`, every instance
// conflated), a package-level mutex (`engine.regMu`), or a
// function-local one — and an edge A → B records that somewhere, B is
// acquired while A is held. B may be acquired directly in the same
// function, or transitively: a call made under A to a module function
// whose (transitive) body acquires B contributes the same edge. A cycle
// in the graph means two executions can acquire the same locks in
// opposite orders — the classic deadlock — so every cycle is a finding,
// reported once per strongly-connected component at its first
// contributing edge in the package under analysis.
//
// defer is modeled as holding to the end of the function: a
// `defer mu.Unlock()` keeps mu held for every later acquisition in the
// body (that is exactly when the lock is released), while an inline
// `mu.Unlock()` releases it at the statement. Function literals are
// separate acquisition scopes: a goroutine body does not inherit the
// spawner's held set (the spawner does not hold its locks on the
// goroutine's behalf), but the literal's own nesting still contributes
// edges.
var ruleLockOrder = &Rule{
	Name: "lockorder",
	Doc:  "the module-wide lock-acquisition graph is acyclic (no potential lock-order deadlocks)",
	Run:  runLockOrder,
}

// lockEdge is one held→acquired observation.
type lockEdge struct {
	from, to string
	pos      token.Pos // where `to` was acquired (or the call that acquires it)
	inPkg    bool      // recorded from a function declared in the pass's package
}

// lockSummary is the transitive set of lock identities a function
// acquires.
type lockSummary struct {
	acquired map[string]token.Pos
}

type lockAnalyzer struct {
	p          *Pass
	summaries  map[*types.Func]*lockSummary
	inProgress map[*types.Func]bool
	edges      map[[2]string]*lockEdge
}

func runLockOrder(p *Pass) {
	a := &lockAnalyzer{
		p:          p,
		summaries:  map[*types.Func]*lockSummary{},
		inProgress: map[*types.Func]bool{},
		edges:      map[[2]string]*lockEdge{},
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				a.summarize(fn)
			} else {
				// init functions and unresolved decls: analyze directly.
				a.analyzeBody(p.Pkg, fd, fd.Body, map[string]token.Pos{})
			}
		}
	}
	a.reportCycles()
}

// summarize computes (and memoizes) the transitive acquired-lock set of a
// module function, analyzing its body once.
func (a *lockAnalyzer) summarize(fn *types.Func) *lockSummary {
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	if a.inProgress[fn] {
		return &lockSummary{acquired: map[string]token.Pos{}} // recursion: partial
	}
	a.inProgress[fn] = true
	defer func() { a.inProgress[fn] = false }()

	s := &lockSummary{acquired: map[string]token.Pos{}}
	pkg, decl := a.p.Pkg.FuncDeclOf(fn)
	if decl != nil && decl.Body != nil {
		a.analyzeBodyInto(pkg, decl, decl.Body, s.acquired)
	}
	a.summaries[fn] = s
	return s
}

// analyzeBody analyzes one function (or literal) body with an empty held
// set, discarding the acquired summary.
func (a *lockAnalyzer) analyzeBody(pkg *Package, decl *ast.FuncDecl, body *ast.BlockStmt, acquired map[string]token.Pos) {
	a.analyzeBodyInto(pkg, decl, body, acquired)
}

// analyzeBodyInto walks one body in source order, maintaining the held
// set, recording edges, and accumulating the acquired set. Nested
// function literals are collected and analyzed separately with empty
// held sets; their acquisitions do not join the enclosing summary (they
// run on another goroutine's schedule, or at defer time).
func (a *lockAnalyzer) analyzeBodyInto(pkg *Package, decl *ast.FuncDecl, body *ast.BlockStmt, acquired map[string]token.Pos) {
	inPkg := pkg == a.p.Pkg
	fnName := "func"
	if decl != nil && decl.Name != nil {
		fnName = decl.Name.Name
	}
	type held struct {
		id  string
		pos token.Pos
	}
	var heldLocks []held
	deferredCalls := map[*ast.CallExpr]bool{}
	var lits []*ast.FuncLit

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
			return false
		case *ast.DeferStmt:
			deferredCalls[n.Call] = true
			return true
		case *ast.CallExpr:
			sel, isSel := n.Fun.(*ast.SelectorExpr)
			if isSel && len(n.Args) == 0 {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if lockRecvIsMutex(pkg, sel.X) && !deferredCalls[n] {
						id := a.lockID(pkg, fnName, sel.X)
						for _, h := range heldLocks {
							a.addEdge(h.id, id, n.Pos(), inPkg)
						}
						heldLocks = append(heldLocks, held{id: id, pos: n.Pos()})
						if _, ok := acquired[id]; !ok {
							acquired[id] = n.Pos()
						}
						return true
					}
				case "Unlock", "RUnlock":
					if lockRecvIsMutex(pkg, sel.X) && !deferredCalls[n] {
						id := a.lockID(pkg, fnName, sel.X)
						for i := len(heldLocks) - 1; i >= 0; i-- {
							if heldLocks[i].id == id {
								heldLocks = append(heldLocks[:i], heldLocks[i+1:]...)
								break
							}
						}
						return true
					}
					// A deferred unlock releases at function end: the
					// lock stays in the held set for the rest of the walk.
				}
			}
			// A call to a module function: its transitive acquisitions
			// nest under everything currently held.
			if callee := calleeFunc(pkg, n); callee != nil && isModuleFunc(callee, a.p.Pkg.Module) {
				sum := a.summarize(callee)
				for id := range sum.acquired {
					for _, h := range heldLocks {
						a.addEdge(h.id, id, n.Pos(), inPkg)
					}
					if _, ok := acquired[id]; !ok {
						acquired[id] = n.Pos()
					}
				}
			}
			return true
		}
		return true
	})

	for _, lit := range lits {
		a.analyzeBodyInto(pkg, decl, lit.Body, map[string]token.Pos{})
	}
}

func (a *lockAnalyzer) addEdge(from, to string, pos token.Pos, inPkg bool) {
	key := [2]string{from, to}
	if e, ok := a.edges[key]; ok {
		// Prefer an in-package representative for reporting.
		if !e.inPkg && inPkg {
			e.inPkg = true
			e.pos = pos
		}
		return
	}
	a.edges[key] = &lockEdge{from: from, to: to, pos: pos, inPkg: inPkg}
}

// calleeFunc resolves a call to its *types.Func (named functions and
// methods; function values are opaque).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// lockRecvIsMutex is isMutexRecv generalized to any package's type info.
func lockRecvIsMutex(pkg *Package, recv ast.Expr) bool {
	t := pkg.Info.TypeOf(recv)
	if t == nil {
		return true // no type info: assume (Lock/Unlock names are a strong signal)
	}
	for {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex":
				return true
			}
		}
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	hasLock, hasUnlock := false, false
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Lock", "RLock":
			hasLock = true
		case "Unlock", "RUnlock":
			hasUnlock = true
		}
	}
	return hasLock && hasUnlock
}

// lockID canonicalizes a lock receiver expression into a stable identity:
//
//	struct field        →  pkg.Type.field   (all instances conflated)
//	package-level var   →  pkg.var
//	local var           →  pkg.func.var
//	anything else       →  pkg.func.<expr>
func (a *lockAnalyzer) lockID(pkg *Package, fnName string, e ast.Expr) string {
	short := shortPkg(pkg.Path)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Obj() != nil {
			recv := s.Recv()
			for {
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
					continue
				}
				break
			}
			if named, ok := recv.(*types.Named); ok {
				owner := named.Obj()
				ownerPkg := short
				if owner.Pkg() != nil {
					ownerPkg = shortPkg(owner.Pkg().Path())
				}
				return ownerPkg + "." + owner.Name() + "." + s.Obj().Name()
			}
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				// Package scope.
				return short + "." + v.Name()
			}
			// An ident of a named type embedding a mutex (s.Lock()):
			// conflate by type, like fields.
			t := v.Type()
			for {
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
					continue
				}
				break
			}
			if named, ok := t.(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg().Path() != "sync" {
					return shortPkg(obj.Pkg().Path()) + "." + obj.Name()
				}
			}
			return short + "." + fnName + "." + v.Name()
		}
	}
	return short + "." + fnName + "." + types.ExprString(e)
}

// shortPkg trims the module prefix off an import path for readable lock
// identities ("traj2hash/internal/engine" → "engine").
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// reportCycles finds strongly-connected components of the edge graph and
// reports each SCC containing a cycle, at its first in-package edge.
func (a *lockAnalyzer) reportCycles() {
	// Build adjacency.
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for key := range a.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		nodes[key[0]], nodes[key[1]] = true, true
	}
	for n := range adj {
		sort.Strings(adj[n])
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	sccs := tarjanSCC(order, adj)
	for _, scc := range sccs {
		cyclic := len(scc) > 1
		if !cyclic {
			n := scc[0]
			if _, self := a.edges[[2]string{n, n}]; self {
				cyclic = true
			}
		}
		if !cyclic {
			continue
		}
		sort.Strings(scc)
		member := map[string]bool{}
		for _, n := range scc {
			member[n] = true
		}
		// Representative edge: the lexicographically first in-package
		// edge inside the SCC. If no edge belongs to this package the
		// cycle lives entirely in a dependency, whose own pass reports it.
		var rep *lockEdge
		var repKey [2]string
		for key, e := range a.edges {
			if !e.inPkg || !member[key[0]] || !member[key[1]] {
				continue
			}
			if rep == nil || key[0] < repKey[0] || (key[0] == repKey[0] && key[1] < repKey[1]) {
				rep, repKey = e, key
			}
		}
		if rep == nil {
			continue
		}
		a.p.Reportf(rep.pos,
			"lock-order cycle {%s}: %s is acquired while %s is held, and a path acquires them in the opposite order — potential deadlock; pick one global acquisition order",
			strings.Join(scc, " ⇄ "), rep.to, rep.from)
	}
}

// tarjanSCC computes strongly-connected components (iterative Tarjan,
// deterministic given sorted inputs).
func tarjanSCC(order []string, adj map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		node string
		succ int
	}
	for _, start := range order {
		if _, seen := index[start]; seen {
			continue
		}
		frames := []frame{{node: start}}
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.succ < len(adj[f.node]) {
				w := adj[f.node][f.succ]
				f.succ++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
				continue
			}
			// Pop the frame.
			node := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[node] < low[parent.node] {
					low[parent.node] = low[node]
				}
			}
			if low[node] == index[node] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == node {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
