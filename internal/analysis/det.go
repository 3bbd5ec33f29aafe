package analysis

// The determinism-contract taint analysis behind the detmaprange,
// detwallclock, and detunordered rules (rule_det.go). The system's
// strongest guarantees are byte-identity guarantees — bitwise-identical
// training resume, crash-recovery top-k parity through the WAL, exact
// cross-backend merge — and all of them die the moment nondeterminism
// reaches serialized or replayed state. This analysis tracks it there
// statically.
//
// Sources (what taints a value):
//
//	ORDER  map-range iteration order: `for k, v := range m`, maps.Keys,
//	       maps.Values, and anything derived from them
//	CLOCK  wall-clock and ambient process state: time.Now/Since/Until,
//	       the global math/rand functions (rand.New(rand.NewSource(seed))
//	       methods are deterministic and exempt), os.Getpid-class reads
//	SCHED  goroutine-completion order: writes to captured variables from
//	       `go` literals, receives fed by multiple goroutines, select
//	       over multiple channels
//
// Sinks (where taint is a finding):
//
//	- arguments of (*encoding/gob.Encoder).Encode / EncodeValue — gob
//	  bytes feed snapshots, checkpoints, datasets, and model files
//	- payload arguments of a wal Store's Append — every appended record
//	  is replayed verbatim during recovery
//	- return values of //det:replayed functions (funcdirective.go), whose
//	  outcome is compared byte-for-byte across replays; additionally,
//	  ANY clock/ambient read or multi-channel select transitively
//	  reachable inside a //det:replayed function is a finding even
//	  without value flow, because replayed code must be a pure function
//	  of its logged inputs
//
// Propagation is a forward dataflow (SolveDataflow over BuildCFG) with
// per-variable taint masks, plus per-function summaries so module-local
// helpers launder nothing: a callee that ranges a map into a slice and
// returns it unsorted taints the caller's value at the sink. Summaries
// carry (a) the taint a call's result generates, (b) which parameters
// flow into the result, and (c) the taint the body merges back into
// each parameter (receiver included), so `capture(&state)` followed by
// an encode of state is caught too.
//
// Sanitizers: an in-place sort (sort.Strings/Ints/Float64s/Slice/...,
// slices.Sort*) clears ORDER and SCHED from its argument — a canonical
// order makes iteration-order and completion-order history irrelevant.
// Integer `+=`-style accumulation is exempt from ORDER/SCHED (exact and
// commutative, so accumulation order cannot change the result); float
// accumulation keeps its taint (float addition is not associative).
// Writes through an index that carries the same taint class as the
// value are slot-addressed (`vals[out.i] = out.v`) and do not taint the
// container.
//
// Known, deliberate approximations: taint does not flow through channel
// sends into receives (receives are tainted by the multi-sender
// heuristic instead), function values are opaque (only named
// functions/methods get summaries), and control-flow taint (branching
// on a tainted condition) is not tracked.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ---- taint lattice ----

// taint is a bitmask of nondeterminism classes.
type taint uint8

// Class indices (cause array slots) and their mask bits.
const (
	ciOrder = iota // map-iteration order
	ciClock        // wall clock / global rand / ambient process state
	ciSched        // goroutine-completion order
	ciN
)

const (
	taintOrder taint = 1 << ciOrder
	taintClock taint = 1 << ciClock
	taintSched taint = 1 << ciSched
)

// detCause records the first source that introduced one taint class,
// for human-readable findings.
type detCause struct {
	what string
	pos  token.Pos
}

// taintVal is the abstract value of one variable: which classes taint
// it, which function parameters flow into it (bit i = parameter i,
// receiver first), and the first cause per class.
type taintVal struct {
	mask   taint
	params uint32
	cause  [ciN]*detCause
}

func (t taintVal) zero() bool { return t.mask == 0 && t.params == 0 }

func mergeTaint(a, b taintVal) taintVal {
	out := a
	out.mask |= b.mask
	out.params |= b.params
	for i := 0; i < ciN; i++ {
		if out.cause[i] == nil {
			out.cause[i] = b.cause[i]
		}
	}
	return out
}

func classTaint(ci int, what string, pos token.Pos) taintVal {
	var t taintVal
	t.mask = 1 << ci
	t.cause[ci] = &detCause{what: what, pos: pos}
	return t
}

// causeStr names the recorded source of one class, with a fallback for
// taint that arrived purely through parameter rebinding.
func causeStr(t taintVal, ci int) string {
	if c := t.cause[ci]; c != nil {
		return c.what
	}
	return "a nondeterministic source"
}

// detFact is the dataflow fact: per-variable taint.
type detFact map[*types.Var]taintVal

func cloneFact(f detFact) detFact {
	out := make(detFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func equalFact(a, b detFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v.mask != w.mask || v.params != w.params {
			return false
		}
	}
	return true
}

// ---- per-function summaries ----

// detSummary is the interprocedural view of one module function.
type detSummary struct {
	// ret is the taint of the function's (merged) return values: mask =
	// taint generated inside the body, params = which parameters flow
	// into the result.
	ret taintVal
	// paramOut[i] is the taint the body merges back INTO parameter i
	// (receiver first) — pointer/receiver mutation flow.
	paramOut []taintVal
	// observes is the clock/sched event set the body (or a transitive
	// module callee) executes regardless of value flow: time.Now-class
	// reads and multi-channel selects.
	observes taintVal
}

// ---- analyzer ----

// detFinding is one pre-computed finding, tagged with the rule that
// owns it.
type detFinding struct {
	rule string
	pos  token.Pos
	msg  string
	fix  *Fix
}

type detAnalyzer struct {
	pkg        *Package
	summaries  map[*types.Func]*detSummary
	inProgress map[*types.Func]bool
	findings   []detFinding
	seen       map[string]bool // rule|file|line dedupe
}

// detMemo caches one package's det analysis across the three rules
// (each rule's Run filters the shared finding list by rule name).
type detMemo struct {
	once     sync.Once
	findings []detFinding
}

var detMemos sync.Map // *Package -> *detMemo

// detFindings runs (once per package) the full determinism analysis and
// returns its findings.
func detFindings(pkg *Package) []detFinding {
	mi, _ := detMemos.LoadOrStore(pkg, &detMemo{})
	m := mi.(*detMemo)
	m.once.Do(func() {
		a := &detAnalyzer{
			pkg:        pkg,
			summaries:  map[*types.Func]*detSummary{},
			inProgress: map[*types.Func]bool{},
			seen:       map[string]bool{},
		}
		a.run()
		m.findings = a.findings
	})
	return m.findings
}

func (a *detAnalyzer) run() {
	replayed := map[*ast.FuncDecl]markedFunc{}
	for _, df := range replayedDirective.funcs(a.pkg) {
		replayed[df.decl] = df
	}
	for _, f := range a.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var rep *markedFunc
			if df, ok := replayed[fd]; ok {
				rep = &df
			}
			var fn *types.Func
			if def, ok := a.pkg.Info.Defs[fd.Name].(*types.Func); ok {
				fn = def
			}
			a.analyzeFuncBody(a.pkg, fd, fd.Body, fn, rep, true)
			if rep != nil {
				a.checkReplayedObserves(a.pkg, fd, *rep)
			}
		}
	}
	sort.Slice(a.findings, func(i, j int) bool {
		if a.findings[i].pos != a.findings[j].pos {
			return a.findings[i].pos < a.findings[j].pos
		}
		return a.findings[i].rule < a.findings[j].rule
	})
}

// report records one finding, deduplicated per (rule, file, line) so a
// source that is both an observed event and a tainted return on the
// same line yields one diagnostic.
func (a *detAnalyzer) report(rule string, pos token.Pos, msg string, fix *Fix) {
	p := a.pkg.Fset.Position(pos)
	key := rule + "|" + p.Filename + "|" + fmt.Sprint(p.Line)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.findings = append(a.findings, detFinding{rule: rule, pos: pos, msg: msg, fix: fix})
}

func (a *detAnalyzer) shortPos(pkg *Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// summarize computes (and memoizes) the interprocedural summary of a
// module function, analyzing its body once without reporting.
func (a *detAnalyzer) summarize(fn *types.Func) *detSummary {
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	if a.inProgress[fn] {
		return &detSummary{} // recursion: partial (empty) summary
	}
	a.inProgress[fn] = true
	defer func() { a.inProgress[fn] = false }()

	s := &detSummary{}
	pkg, decl := a.pkg.FuncDeclOf(fn)
	if decl == nil || decl.Body == nil {
		a.summaries[fn] = s
		return s
	}
	body, exit := a.analyzeFuncBody(pkg, decl, decl.Body, fn, nil, false)
	s.ret = body.ret
	s.paramOut = make([]taintVal, len(body.params))
	for i, v := range body.params {
		t := exit[v]
		if i < 30 {
			t.params &^= uint32(1) << uint(i) // a param trivially carries its own bit
		}
		s.paramOut[i] = t
	}
	s.observes = a.observesOf(pkg, decl)
	a.summaries[fn] = s
	return s
}

// observesOf collects the clock/sched events a body executes regardless
// of value flow: direct ambient reads, multi-channel selects, and the
// observations of transitive module callees. Function literals are
// included — they run within the function's dynamic extent.
func (a *detAnalyzer) observesOf(pkg *Package, decl *ast.FuncDecl) taintVal {
	var out taintVal
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if nc := nonDefaultComms(n); nc >= 2 {
				out = mergeTaint(out, classTaint(ciSched,
					fmt.Sprintf("a select over %d channels (%s)", nc, a.shortPos(pkg, n.Pos())), n.Pos()))
			}
		case *ast.CallExpr:
			if src, ok := a.stdlibSource(pkg, n); ok {
				if src.mask&taintClock != 0 {
					out = mergeTaint(out, src)
				}
			} else if fn := calleeFunc(pkg, n); fn != nil && isModuleFunc(fn, a.pkg.Module) {
				sub := a.summarize(fn).observes
				if sub.mask != 0 {
					out = mergeTaint(out, sub)
				}
			}
		}
		return true
	})
	return out
}

// checkReplayedObserves reports, inside a //det:replayed function, every
// ambient read and scheduling-dependent select — direct or through a
// module callee — at its call site.
func (a *detAnalyzer) checkReplayedObserves(pkg *Package, decl *ast.FuncDecl, rep markedFunc) {
	name := funcDisplayName(decl)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if nc := nonDefaultComms(n); nc >= 2 {
				a.report("detunordered", n.Pos(), fmt.Sprintf(
					"%s is //det:replayed (%s) but selects over %d channels — which branch runs depends on goroutine scheduling, so replay can diverge",
					name, rep.reason, nc), nil)
			}
		case *ast.CallExpr:
			if src, ok := a.stdlibSource(pkg, n); ok {
				if src.mask&taintClock != 0 {
					a.report("detwallclock", n.Pos(), fmt.Sprintf(
						"%s is //det:replayed (%s) but reads %s — replayed code must be a pure function of its logged inputs",
						name, rep.reason, causeStr(src, ciClock)), nil)
				}
			} else if fn := calleeFunc(pkg, n); fn != nil && isModuleFunc(fn, a.pkg.Module) {
				obs := a.summarize(fn).observes
				if obs.mask&taintClock != 0 {
					a.report("detwallclock", n.Pos(), fmt.Sprintf(
						"%s is //det:replayed (%s) but calls %s, which transitively reads %s — replayed code must be a pure function of its logged inputs",
						name, rep.reason, fn.Name(), causeStr(obs, ciClock)), nil)
				}
				if obs.mask&taintSched != 0 {
					a.report("detunordered", n.Pos(), fmt.Sprintf(
						"%s is //det:replayed (%s) but calls %s, which transitively contains %s — replay can diverge with goroutine scheduling",
						name, rep.reason, fn.Name(), causeStr(obs, ciSched)), nil)
				}
			}
		}
		return true
	})
}

// stdlibSource recognizes the nondeterminism-source calls. Methods are
// never sources here (a seeded *rand.Rand is deterministic); only
// package-level functions qualify.
func (a *detAnalyzer) stdlibSource(pkg *Package, call *ast.CallExpr) (taintVal, bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return taintVal{}, false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return taintVal{}, false
	}
	name := fn.Name()
	posStr := a.shortPos(pkg, call.Pos())
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return classTaint(ciClock, "the wall clock (time."+name+" at "+posStr+")", call.Pos()), true
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[name] {
			return classTaint(ciClock, "the global math/rand source (rand."+name+" at "+posStr+")", call.Pos()), true
		}
	case "os":
		if ambientOSFuncs[name] {
			return classTaint(ciClock, "ambient process state (os."+name+" at "+posStr+")", call.Pos()), true
		}
	case "maps":
		switch name {
		case "Keys", "Values":
			return classTaint(ciOrder, "map iteration order (maps."+name+" at "+posStr+")", call.Pos()), true
		}
	}
	return taintVal{}, false
}

// globalRandFuncs are the math/rand package-level functions backed by
// the shared global source. Constructors (New, NewSource, NewZipf) are
// deterministic given their arguments and excluded.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// ambientOSFuncs are the os reads whose result depends on the process
// environment rather than program inputs.
var ambientOSFuncs = map[string]bool{
	"Getpid": true, "Getppid": true, "Getuid": true, "Getgid": true,
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Hostname": true, "Getwd": true, "TempDir": true,
}

// nonDefaultComms counts a select's non-default communication clauses.
func nonDefaultComms(s *ast.SelectStmt) int {
	n := 0
	for _, raw := range s.Body.List {
		if cc, ok := raw.(*ast.CommClause); ok && cc.Comm != nil {
			n++
		}
	}
	return n
}

// ---- per-body analysis ----

// detBody carries one function (or literal) body through the dataflow.
type detBody struct {
	a         *detAnalyzer
	pkg       *Package
	decl      *ast.FuncDecl
	rep       *markedFunc
	report    bool
	params    []*types.Var // receiver first
	paramBit  map[*types.Var]int
	results   []*types.Var // named results
	multiSend bool
	multiComm map[ast.Stmt]bool // comm statements of multi-case selects
	lits      []*ast.FuncLit    // top-level literals of this body
	ret       taintVal          // merged taint of all returns
}

// analyzeFuncBody runs the dataflow over one body. With report=true it
// emits findings for the analyzer's package; with report=false it only
// computes the summary inputs (return taint, exit fact). The returned
// fact is the body's exit fact (parameter mutation view).
func (a *detAnalyzer) analyzeFuncBody(pkg *Package, decl *ast.FuncDecl, body *ast.BlockStmt, fn *types.Func, rep *markedFunc, report bool) (*detBody, detFact) {
	b := &detBody{
		a: a, pkg: pkg, decl: decl, rep: rep, report: report,
		paramBit:  map[*types.Var]int{},
		multiComm: map[ast.Stmt]bool{},
	}
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			if r := sig.Recv(); r != nil {
				b.params = append(b.params, r)
			}
			for i := 0; i < sig.Params().Len(); i++ {
				b.params = append(b.params, sig.Params().At(i))
			}
			for i, v := range b.params {
				if i < 30 {
					b.paramBit[v] = i
				}
			}
			for i := 0; i < sig.Results().Len(); i++ {
				if rv := sig.Results().At(i); rv.Name() != "" {
					b.results = append(b.results, rv)
				}
			}
		}
	}
	b.scanShape(body)

	entry := detFact{}
	for v, bit := range b.paramBit {
		entry[v] = taintVal{params: uint32(1) << uint(bit)}
	}
	g := BuildCFG(body)
	prob := Dataflow[detFact]{
		Dir:      Forward,
		Bottom:   func() detFact { return detFact{} },
		Boundary: func() detFact { return cloneFact(entry) },
		Join: func(acc, src detFact) detFact {
			for k, v := range src {
				acc[k] = mergeTaint(acc[k], v)
			}
			return acc
		},
		Equal: equalFact,
		Transfer: func(blk *CFGBlock, in detFact) detFact {
			out := cloneFact(in)
			for _, n := range blk.Nodes {
				b.transferNode(n, out)
			}
			return out
		},
	}
	res := SolveDataflow(g, prob)

	// Replay each block from its fixed-point input, checking sinks with
	// the fact live at each statement and collecting return taint.
	for _, blk := range g.Blocks {
		fact := cloneFact(res.In[blk.Index])
		for _, n := range blk.Nodes {
			if report {
				b.checkSinks(n, fact)
			}
			b.collectReturn(n, fact)
			b.transferNode(n, fact)
		}
	}

	// Function literals are their own control-flow scopes; analyze each
	// for sinks when reporting (their free variables start unknown).
	if report {
		for _, lit := range b.lits {
			a.analyzeFuncBody(pkg, decl, lit.Body, nil, nil, true)
		}
	}
	return b, res.In[g.Exit.Index]
}

// scanShape precomputes body-level structure: the multi-sender
// heuristic (two or more spawned goroutines, counting a `go` inside a
// loop as many), the comm statements of multi-case selects, and the
// body's top-level function literals.
func (b *detBody) scanShape(body *ast.BlockStmt) {
	goCount := 0
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			b.lits = append(b.lits, n)
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				return walk(m)
			})
			depth--
			return false
		case *ast.GoStmt:
			if depth > 0 {
				goCount += 2
			} else {
				goCount++
			}
		case *ast.SelectStmt:
			if nonDefaultComms(n) >= 2 {
				for _, raw := range n.Body.List {
					if cc, ok := raw.(*ast.CommClause); ok && cc.Comm != nil {
						b.multiComm[cc.Comm] = true
					}
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	b.multiSend = goCount >= 2
}

// sinkScanRoot narrows composite CFG nodes to the part evaluated at
// that point: a RangeStmt node in a loop head stands only for its range
// expression (the body statements live in their own blocks).
func sinkScanRoot(n ast.Node) ast.Node {
	if rs, ok := n.(*ast.RangeStmt); ok {
		return rs.X
	}
	return n
}

// ---- transfer function ----

func (b *detBody) transferNode(n ast.Node, fact detFact) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		b.assign(n, fact)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t taintVal
					if i < len(vs.Values) {
						t = b.exprTaint(vs.Values[i], fact)
					} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
						t = b.exprTaint(vs.Values[0], fact)
					}
					b.assignTo(name, t, fact)
				}
			}
		}
	case *ast.RangeStmt:
		b.rangeTaint(n, fact)
		b.applyCallEffects(n.X, fact)
		return
	case *ast.ExprStmt:
		if call, ok := detUnparen(n.X).(*ast.CallExpr); ok && b.sanitize(call, fact) {
			return
		}
	case *ast.GoStmt:
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			b.goLitWrites(lit, fact)
		}
	}
	b.applyCallEffects(n, fact)
}

func (b *detBody) assign(n *ast.AssignStmt, fact detFact) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		// Op-assign (x += y, ...): merge, with the commutative-integer
		// exemption for ORDER/SCHED (exact accumulation is
		// order-insensitive; float accumulation is not).
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			t := b.exprTaint(n.Rhs[0], fact)
			if commutativeIntOp(n.Tok) && b.isIntegerExpr(n.Lhs[0]) {
				t.mask &^= taintOrder | taintSched
			}
			if v := b.lhsRootVar(n.Lhs[0]); v != nil {
				fact[v] = mergeTaint(fact[v], t)
			}
		}
		return
	}
	var extra taintVal
	if b.multiComm[n] {
		extra = classTaint(ciSched,
			"a select over multiple channels ("+b.a.shortPos(b.pkg, n.Pos())+")", n.Pos())
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		t := mergeTaint(b.exprTaint(n.Rhs[0], fact), extra)
		for _, l := range n.Lhs {
			b.assignTo(l, t, fact)
		}
		return
	}
	for i, l := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		b.assignTo(l, mergeTaint(b.exprTaint(n.Rhs[i], fact), extra), fact)
	}
}

// assignTo applies one l = t binding. Identifiers get a strong update;
// element/field/pointer writes merge into the container variable, with
// the slot-addressing exemption: taint classes already present on the
// index are keyed writes (`vals[out.i] = out.v`), which are
// order-insensitive and do not taint the container.
func (b *detBody) assignTo(l ast.Expr, t taintVal, fact detFact) {
	switch l := detUnparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if v := b.identVar(l); v != nil {
			fact[v] = t
		}
	case *ast.IndexExpr:
		it := b.exprTaint(l.Index, fact)
		eff := t
		eff.mask &^= it.mask
		if !eff.zero() {
			if v := b.lhsRootVar(l.X); v != nil {
				fact[v] = mergeTaint(fact[v], eff)
			}
		}
	case *ast.SelectorExpr:
		if v := b.lhsRootVar(l.X); v != nil {
			fact[v] = mergeTaint(fact[v], t)
		}
	case *ast.StarExpr:
		if v := b.lhsRootVar(l.X); v != nil {
			fact[v] = mergeTaint(fact[v], t)
		}
	}
}

func (b *detBody) rangeTaint(n *ast.RangeStmt, fact detFact) {
	xt := b.exprTaint(n.X, fact)
	var keyT, valT taintVal
	switch typeUnderlying(b.pkg.Info.TypeOf(n.X)).(type) {
	case *types.Map:
		c := classTaint(ciOrder, fmt.Sprintf("range over map %s (%s)",
			types.ExprString(n.X), b.a.shortPos(b.pkg, n.Pos())), n.Pos())
		keyT = mergeTaint(xt, c)
		valT = keyT
	case *types.Chan:
		valT = xt
		if b.multiSend {
			valT = mergeTaint(valT, classTaint(ciSched,
				"a range over a channel fed by multiple goroutines ("+b.a.shortPos(b.pkg, n.Pos())+")", n.Pos()))
		}
		keyT = valT
	default:
		// Slices, arrays, strings, ints, iterators: indices are
		// deterministic; element values inherit the container's taint
		// (iterating a nondeterministically-ordered slice visits values
		// in nondeterministic order).
		valT = xt
	}
	if n.Key != nil {
		b.assignTo(n.Key, keyT, fact)
	}
	if n.Value != nil {
		b.assignTo(n.Value, valT, fact)
	}
}

// sanitize recognizes statement-level in-place sorts and clears
// ORDER/SCHED from the sorted variable: a canonical order makes both
// iteration-order and completion-order history irrelevant.
func (b *detBody) sanitize(call *ast.CallExpr, fact detFact) bool {
	fn := calleeFunc(b.pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	ok := false
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			ok = true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			ok = true
		}
	}
	if !ok || len(call.Args) == 0 {
		return false
	}
	v := b.lhsRootVar(call.Args[0])
	if v == nil {
		return false
	}
	t := fact[v]
	t.mask &^= taintOrder | taintSched
	t.cause[ciOrder], t.cause[ciSched] = nil, nil
	t.params = 0 // carried argument taint is laundered by the canonical order
	fact[v] = t
	return true
}

// goLitWrites taints, with SCHED, every captured variable a `go`
// literal writes in completion order: plain assignments and appends are
// last-writer/arrival-order races; integer op-assign accumulation and
// index/field writes (slot-addressed) are exempt.
func (b *detBody) goLitWrites(lit *ast.FuncLit, fact detFact) {
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		as, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			id, ok := detUnparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v := b.identVar(id)
			if v == nil || (v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
				continue // local to the literal
			}
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE &&
				commutativeIntOp(as.Tok) && b.isIntegerExpr(id) {
				continue
			}
			c := classTaint(ciSched, fmt.Sprintf(
				"goroutine-completion-order write to %s (%s)", id.Name, b.a.shortPos(b.pkg, as.Pos())), as.Pos())
			fact[v] = mergeTaint(fact[v], c)
		}
		return true
	})
}

// applyCallEffects merges module callees' parameter-mutation taint
// (summary.paramOut) into addressable arguments: capture(&state)
// taints state if capture's body taints its parameter.
func (b *detBody) applyCallEffects(n ast.Node, fact detFact) {
	root := sinkScanRoot(n)
	if root == nil {
		return
	}
	ast.Inspect(root, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(b.pkg, call)
		if fn == nil || !isModuleFunc(fn, b.a.pkg.Module) {
			return true
		}
		sum := b.a.summarize(fn)
		args := callArgsWithRecv(call, fn)
		for i, arg := range args {
			if arg == nil || i >= len(sum.paramOut) {
				continue
			}
			po := sum.paramOut[i]
			if po.zero() {
				continue
			}
			v := b.lhsRootVar(arg)
			if v == nil {
				continue
			}
			t := taintVal{mask: po.mask, cause: po.cause}
			for j := 0; j < len(args) && j < 30; j++ {
				if po.params&(uint32(1)<<uint(j)) != 0 && args[j] != nil {
					t = mergeTaint(t, b.exprTaint(args[j], fact))
				}
			}
			fact[v] = mergeTaint(fact[v], t)
		}
		return true
	})
}

// ---- expression taint ----

func (b *detBody) exprTaint(e ast.Expr, fact detFact) taintVal {
	switch e := e.(type) {
	case *ast.Ident:
		if v := b.identVar(e); v != nil {
			return fact[v]
		}
	case *ast.ParenExpr:
		return b.exprTaint(e.X, fact)
	case *ast.UnaryExpr:
		t := b.exprTaint(e.X, fact)
		if e.Op == token.ARROW && b.multiSend {
			t = mergeTaint(t, classTaint(ciSched,
				"a receive from a channel fed by multiple goroutines ("+b.a.shortPos(b.pkg, e.Pos())+")", e.Pos()))
		}
		return t
	case *ast.StarExpr:
		return b.exprTaint(e.X, fact)
	case *ast.BinaryExpr:
		return mergeTaint(b.exprTaint(e.X, fact), b.exprTaint(e.Y, fact))
	case *ast.CallExpr:
		return b.callTaint(e, fact)
	case *ast.CompositeLit:
		var t taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t = mergeTaint(t, b.exprTaint(kv.Value, fact))
			} else {
				t = mergeTaint(t, b.exprTaint(el, fact))
			}
		}
		return t
	case *ast.IndexExpr:
		return mergeTaint(b.exprTaint(e.X, fact), b.exprTaint(e.Index, fact))
	case *ast.SliceExpr:
		return b.exprTaint(e.X, fact)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := b.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				return taintVal{}
			}
		}
		return b.exprTaint(e.X, fact)
	case *ast.TypeAssertExpr:
		return b.exprTaint(e.X, fact)
	case *ast.IndexListExpr:
		return b.exprTaint(e.X, fact)
	}
	return taintVal{}
}

func (b *detBody) callTaint(call *ast.CallExpr, fact detFact) taintVal {
	info := b.pkg.Info
	if id, ok := detUnparen(call.Fun).(*ast.Ident); ok {
		if bi, ok := info.Uses[id].(*types.Builtin); ok {
			if bi.Name() == "append" {
				var t taintVal
				for _, a := range call.Args {
					t = mergeTaint(t, b.exprTaint(a, fact))
				}
				return t
			}
			// len, cap, make, new, copy, min, max, ...: deterministic
			// given deterministic content.
			return taintVal{}
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return b.exprTaint(call.Args[0], fact) // conversion
		}
		return taintVal{}
	}
	if src, ok := b.a.stdlibSource(b.pkg, call); ok {
		return src
	}
	fn := calleeFunc(b.pkg, call)
	if fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "slices" {
			switch fn.Name() {
			case "Sorted", "SortedFunc", "SortedStableFunc":
				// Sorted copies are canonical regardless of input order.
				var t taintVal
				for _, a := range call.Args {
					t = mergeTaint(t, b.exprTaint(a, fact))
				}
				t.mask &^= taintOrder | taintSched
				t.cause[ciOrder], t.cause[ciSched] = nil, nil
				return t
			}
		}
		if isModuleFunc(fn, b.a.pkg.Module) {
			sum := b.a.summarize(fn)
			t := taintVal{mask: sum.ret.mask, cause: sum.ret.cause}
			args := callArgsWithRecv(call, fn)
			for i := 0; i < len(args) && i < 30; i++ {
				if sum.ret.params&(uint32(1)<<uint(i)) != 0 && args[i] != nil {
					t = mergeTaint(t, b.exprTaint(args[i], fact))
				}
			}
			return t
		}
	}
	// Opaque call (stdlib, interface method, func value): taint flows
	// through the receiver and arguments.
	var t taintVal
	if sel, ok := detUnparen(call.Fun).(*ast.SelectorExpr); ok {
		t = mergeTaint(t, b.exprTaint(sel.X, fact))
	}
	for _, a := range call.Args {
		t = mergeTaint(t, b.exprTaint(a, fact))
	}
	return t
}

// ---- sinks ----

type sinkClass int

const (
	sinkNone sinkClass = iota
	sinkGob
	sinkWAL
)

func (s sinkClass) String() string {
	switch s {
	case sinkGob:
		return "gob encode"
	case sinkWAL:
		return "WAL append payload"
	}
	return "sink"
}

func (b *detBody) sinkKind(call *ast.CallExpr) sinkClass {
	sel, ok := detUnparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return sinkNone
	}
	switch sel.Sel.Name {
	case "Encode", "EncodeValue":
		if named := namedRecvType(b.pkg, sel.X); named != nil {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "encoding/gob" && obj.Name() == "Encoder" {
				return sinkGob
			}
		}
	case "Append":
		if named := namedRecvType(b.pkg, sel.X); named != nil {
			obj := named.Obj()
			if obj.Pkg() != nil && shortPkg(obj.Pkg().Path()) == "wal" {
				return sinkWAL
			}
		}
	}
	return sinkNone
}

func (b *detBody) checkSinks(n ast.Node, fact detFact) {
	root := sinkScanRoot(n)
	if root == nil {
		return
	}
	ast.Inspect(root, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind := b.sinkKind(call)
		if kind == sinkNone {
			return true
		}
		for _, arg := range call.Args {
			t := b.exprTaint(arg, fact)
			if t.mask&taintOrder != 0 {
				b.a.report("detmaprange", arg.Pos(), fmt.Sprintf(
					"map-iteration-ordered data reaches this %s: %s — sort %s into a canonical order before serializing (replayed/recovered state must be byte-stable)",
					kind, causeStr(t, ciOrder), types.ExprString(arg)), b.sortFix(n, arg))
			}
			if t.mask&taintClock != 0 {
				b.a.report("detwallclock", arg.Pos(), fmt.Sprintf(
					"wall-clock/ambient data reaches this %s: %s — serialized state must be a pure function of logged inputs",
					kind, causeStr(t, ciClock)), nil)
			}
			if t.mask&taintSched != 0 {
				b.a.report("detunordered", arg.Pos(), fmt.Sprintf(
					"goroutine-completion-ordered data reaches this %s: %s — collect results by slot index or sort before serializing",
					kind, causeStr(t, ciSched)), nil)
			}
			if kind == sinkGob {
				if at := b.pkg.Info.TypeOf(arg); at != nil && typeContainsMap(at) {
					b.a.report("detmaprange", arg.Pos(), fmt.Sprintf(
						"gob-encoding %s serializes a map (type %s) — gob writes map entries in nondeterministic iteration order, so the bytes differ run to run; encode a sorted slice of key/value pairs instead",
						types.ExprString(arg), at.String()), nil)
				}
			}
		}
		return true
	})
}

// collectReturn merges return-value taint into the body summary and,
// for //det:replayed functions, reports tainted returns.
func (b *detBody) collectReturn(n ast.Node, fact detFact) {
	ret, ok := n.(*ast.ReturnStmt)
	if !ok {
		return
	}
	type rv struct {
		t   taintVal
		pos token.Pos
	}
	var vals []rv
	if len(ret.Results) > 0 {
		for _, r := range ret.Results {
			vals = append(vals, rv{b.exprTaint(r, fact), r.Pos()})
		}
	} else {
		for _, nres := range b.results {
			vals = append(vals, rv{fact[nres], ret.Pos()})
		}
	}
	for _, v := range vals {
		b.ret = mergeTaint(b.ret, v.t)
		if b.rep == nil || !b.report {
			continue
		}
		name := funcDisplayName(b.decl)
		if v.t.mask&taintOrder != 0 {
			b.a.report("detmaprange", v.pos, fmt.Sprintf(
				"%s is //det:replayed (%s) but returns map-iteration-ordered data: %s — sort into a canonical order first",
				name, b.rep.reason, causeStr(v.t, ciOrder)), nil)
		}
		if v.t.mask&taintClock != 0 {
			b.a.report("detwallclock", v.pos, fmt.Sprintf(
				"%s is //det:replayed (%s) but returns wall-clock/ambient data: %s",
				name, b.rep.reason, causeStr(v.t, ciClock)), nil)
		}
		if v.t.mask&taintSched != 0 {
			b.a.report("detunordered", v.pos, fmt.Sprintf(
				"%s is //det:replayed (%s) but returns goroutine-completion-ordered data: %s",
				name, b.rep.reason, causeStr(v.t, ciSched)), nil)
		}
	}
}

// sortFix offers the mechanical sort-before-encode fix: when the sink
// argument is a plain identifier of a mechanically sortable slice type
// ([]string, []int, []float64), insert the canonical sort on the line
// before the sink statement. Offered only when the file already imports
// "sort" or has a grouped import declaration to splice it into.
func (b *detBody) sortFix(stmt ast.Node, arg ast.Expr) *Fix {
	if _, ok := stmt.(ast.Stmt); !ok {
		return nil
	}
	id, ok := detUnparen(arg).(*ast.Ident)
	if !ok {
		return nil
	}
	slice, ok := typeUnderlying(b.pkg.Info.TypeOf(id)).(*types.Slice)
	if !ok {
		return nil
	}
	elem, ok := slice.Elem().Underlying().(*types.Basic)
	if !ok {
		return nil
	}
	var sortFn string
	switch elem.Kind() {
	case types.String:
		sortFn = "sort.Strings"
	case types.Int:
		sortFn = "sort.Ints"
	case types.Float64:
		sortFn = "sort.Float64s"
	default:
		return nil
	}
	pos := b.pkg.Fset.Position(stmt.Pos())
	src, err := os.ReadFile(pos.Filename)
	if err != nil {
		return nil
	}
	lineStart := pos.Offset
	for lineStart > 0 && src[lineStart-1] != '\n' {
		lineStart--
	}
	indent := ""
	for i := lineStart; i < len(src) && (src[i] == ' ' || src[i] == '\t'); i++ {
		indent += string(src[i])
	}
	edits := []Edit{{
		File: pos.Filename, Start: lineStart, End: lineStart,
		New: indent + sortFn + "(" + id.Name + ")\n",
	}}
	if imp := b.importEdit(stmt.Pos(), "sort"); imp != nil {
		edits = append(edits, *imp)
	} else if !b.fileImports(stmt.Pos(), "sort") {
		return nil
	}
	return &Fix{Message: "sort " + id.Name + " into its canonical order before encoding", Edits: edits}
}

// fileOf locates the syntax file containing pos.
func (b *detBody) fileOf(pos token.Pos) *ast.File {
	for _, f := range b.pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}

func (b *detBody) fileImports(pos token.Pos, path string) bool {
	f := b.fileOf(pos)
	if f == nil {
		return false
	}
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return true
		}
	}
	return false
}

// importEdit returns an edit adding `path` to the file's first grouped
// import declaration, or nil when the import is already present (or no
// grouped declaration exists to splice into).
func (b *detBody) importEdit(pos token.Pos, path string) *Edit {
	if b.fileImports(pos, path) {
		return nil
	}
	f := b.fileOf(pos)
	if f == nil {
		return nil
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() {
			continue
		}
		p := b.pkg.Fset.Position(gd.Lparen)
		return &Edit{File: p.Filename, Start: p.Offset + 1, End: p.Offset + 1, New: "\n\t\"" + path + "\""}
	}
	return nil
}

// ---- small helpers ----

func detUnparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func (b *detBody) identVar(id *ast.Ident) *types.Var {
	if v, ok := b.pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := b.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// lhsRootVar unwraps an addressable expression to its base variable:
// (*p).f[i] → p, byID(x) → x.
func (b *detBody) lhsRootVar(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := b.pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return nil
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			if tv, ok := b.pkg.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return nil
		case *ast.Ident:
			return b.identVar(x)
		default:
			return nil
		}
	}
}

func (b *detBody) isIntegerExpr(e ast.Expr) bool {
	basic, ok := typeUnderlying(b.pkg.Info.TypeOf(e)).(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// commutativeIntOp reports whether an op-assign token is
// order-insensitive over exact integers.
func commutativeIntOp(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

// callArgsWithRecv returns a call's arguments with the receiver
// prepended for method calls (aligning indices with summary parameter
// bits). A nil slot marks an unresolvable receiver (method values).
func callArgsWithRecv(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return call.Args
	}
	if sel, ok := detUnparen(call.Fun).(*ast.SelectorExpr); ok {
		return append([]ast.Expr{sel.X}, call.Args...)
	}
	return append([]ast.Expr{nil}, call.Args...)
}

// typeUnderlying is Underlying with nil tolerance.
func typeUnderlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// namedRecvType resolves a method receiver expression to its named
// type, dereferencing pointers.
func namedRecvType(pkg *Package, recv ast.Expr) *types.Named {
	t := pkg.Info.TypeOf(recv)
	for {
		if ptr, ok := typeUnderlying(t).(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	named, _ := t.(*types.Named)
	return named
}

// typeContainsMap reports whether a gob encoding of t serializes a map
// (gob walks exported fields only, and map entries encode in iteration
// order — inherently nondeterministic bytes).
func typeContainsMap(t types.Type) bool {
	return containsMap(t, map[types.Type]bool{}, 0)
}

func containsMap(t types.Type, seen map[types.Type]bool, depth int) bool {
	if t == nil || depth > 12 || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Slice:
		return containsMap(u.Elem(), seen, depth+1)
	case *types.Array:
		return containsMap(u.Elem(), seen, depth+1)
	case *types.Pointer:
		return containsMap(u.Elem(), seen, depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue
			}
			if containsMap(f.Type(), seen, depth+1) {
				return true
			}
		}
	}
	return false
}

// funcDisplayName renders a declaration name with its receiver type for
// findings ("(*Store).Append", "trainLoop").
func funcDisplayName(decl *ast.FuncDecl) string {
	if decl == nil || decl.Name == nil {
		return "func"
	}
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		return "(" + types.ExprString(decl.Recv.List[0].Type) + ")." + decl.Name.Name
	}
	return decl.Name.Name
}
