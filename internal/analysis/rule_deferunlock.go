package analysis

import (
	"go/ast"
	"go/types"
)

// ruleDeferUnlock enforces the lock discipline of the sharded engine and
// the public Index facade: a call to mu.Lock() / mu.RLock() on a sync
// mutex must be paired with a defer mu.Unlock() / mu.RUnlock() on the
// same receiver in the same function (function literals count as their
// own scope). Inline unlocks leak the lock on any panic between Lock and
// Unlock — which, with the engine's per-shard RWMutexes, deadlocks every
// subsequent query against that shard. Hot paths that deliberately keep
// the critical section narrower than the function carry a //lint:ignore
// with the reason.
var ruleDeferUnlock = &Rule{
	Name: "deferunlock",
	Doc:  "Lock()/RLock() must pair with defer Unlock()/RUnlock() in the same function (panic-safe lock discipline)",
	Run:  runDeferUnlock,
}

var unlockFor = map[string]string{
	"Lock":  "Unlock",
	"RLock": "RUnlock",
}

func runDeferUnlock(p *Pass) {
	p.inspect(func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				checkLockScope(p, fn.Body)
			}
		case *ast.FuncLit:
			// The literal is its own lock scope; the walk continues into
			// its body so literals nested inside it get their own check.
			checkLockScope(p, fn.Body)
		}
		return true
	})
}

// checkLockScope inspects one function body (excluding nested function
// literals) for Lock/RLock calls and their deferred counterparts.
func checkLockScope(p *Pass, body *ast.BlockStmt) {
	type lockCall struct {
		call   *ast.CallExpr
		recv   string // receiver expression, e.g. "sh.mu"
		method string // Lock or RLock
	}
	var locks []lockCall
	deferred := map[string]bool{} // "recv\x00method" of deferred unlocks

	walkShallow(body, func(n ast.Node) {
		var call *ast.CallExpr
		isDefer := false
		switch s := n.(type) {
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call, isDefer = s.Call, true
		default:
			return
		}
		if call == nil {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 0 {
			return
		}
		name := sel.Sel.Name
		switch name {
		case "Lock", "RLock":
			if !isDefer && isMutexRecv(p, sel.X) {
				locks = append(locks, lockCall{call: call, recv: types.ExprString(sel.X), method: name})
			}
		case "Unlock", "RUnlock":
			if isDefer {
				deferred[types.ExprString(sel.X)+"\x00"+name] = true
			}
		}
	})

	for _, l := range locks {
		if deferred[l.recv+"\x00"+unlockFor[l.method]] {
			continue
		}
		p.Reportf(l.call.Pos(),
			"%s.%s() without a matching defer %s.%s() in the same function; a panic in the critical section leaks the lock",
			l.recv, l.method, l.recv, unlockFor[l.method])
	}
}

// walkShallow visits every node of body except the bodies of nested
// function literals, which form their own lock scopes.
func walkShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// isMutexRecv reports whether the receiver expression is (when type
// information resolved) a sync.Mutex, sync.RWMutex, sync.Locker, or a
// type embedding one; without type info it conservatively assumes yes —
// the Lock/RLock method-name pair is already a strong signal.
func isMutexRecv(p *Pass, recv ast.Expr) bool {
	t := p.Pkg.Info.TypeOf(recv)
	if t == nil {
		return true
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
	// Interfaces (sync.Locker) and embedders: accept anything whose
	// method set carries Lock/Unlock.
	if t != nil {
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
	return true
}
