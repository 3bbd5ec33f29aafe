package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// rulePanicAttrib requires every panic in an internal/ package to carry a
// message with the package's "pkg: " prefix, either as a string literal
// or through fmt.Sprintf/fmt.Errorf with a literal format string. The
// engine fans work out across goroutines and the autograd tape panics
// deep inside Backward; without the prefix, a recovered stack in a
// production log is not attributable to a subsystem.
var rulePanicAttrib = &Rule{
	Name: "panicattrib",
	Doc:  "panics in internal/ must carry a \"pkg: \"-prefixed message (attributability contract)",
	Run:  runPanicAttrib,
}

func runPanicAttrib(p *Pass) {
	if !isInternalPath(p.Pkg.Path) {
		return
	}
	prefix := p.Pkg.Name + ": "
	p.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "panic" || len(call.Args) != 1 {
			return true
		}
		// A shadowing local func named panic would be perverse; the Uses
		// map distinguishes it when type info resolved.
		if obj := p.Pkg.Info.Uses[fn]; obj != nil && obj.Pkg() != nil {
			return true // not the builtin
		}
		msg, literal := panicMessage(call.Args[0])
		switch {
		case !literal:
			p.Reportf(call.Pos(),
				"panic argument is not a %q-prefixed string literal (or fmt.Sprintf/fmt.Errorf of one); unattributable panics are banned in internal/",
				prefix)
		case !strings.HasPrefix(msg, prefix):
			p.Reportf(call.Pos(),
				"panic message %q must start with %q so recovered stacks attribute to the package",
				truncate(msg, 40), prefix)
		}
		return true
	})
}

// panicMessage extracts the literal message (or format string) of a panic
// argument: a plain string literal, or a fmt.Sprintf/fmt.Errorf call
// whose format is a literal.
func panicMessage(arg ast.Expr) (msg string, literal bool) {
	if s, ok := stringLit(arg); ok {
		return s, true
	}
	call, ok := arg.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "fmt" || (sel.Sel.Name != "Sprintf" && sel.Sel.Name != "Errorf") {
		return "", false
	}
	return stringLit(call.Args[0])
}

// stringLit unquotes a string literal expression (including a
// parenthesized one).
func stringLit(e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
