package analysis

// The function-level contract directive //perf:hotpath.
//
//	//perf:hotpath <reason>
//
// placed in a function's doc comment, marks a serving hot path whose
// loops must stay heap-allocation-free and (where the compiler can prove
// it) bounds-check-free. The three perf rules — hotpathalloc, hotpathbce,
// allocinloop — read these marks.
//
// The directive is validated here exactly like //lint:ignore is in
// suppress.go: a reason is mandatory, the directive must be attached to a
// function declaration's doc comment, and anything else (reasonless,
// misplaced, unknown verb under the same prefix) is a diagnostic under
// the "directive" pseudo-rule.
//
// A well-formed directive on a function that currently produces no
// findings is NOT stale: the mark is a standing contract (the clean
// state is the goal), unlike a //lint:ignore which exists only to excuse
// a live finding.

import (
	"fmt"
	"go/ast"
	"strings"
)

const (
	hotpathPrefix = "perf:"
	hotpathVerb   = "perf:hotpath"
)

// hotpathFuncs returns the functions carrying a well-formed mark, in file
// order. Malformed directives are excluded here (collectHotpathDirectives
// reports them); a function with only a malformed mark is not under the
// contract.
func hotpathFuncs(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				text, ok := directiveText(c.Text, hotpathPrefix)
				if !ok || !isHotpathVerb(text) {
					continue
				}
				if strings.TrimSpace(strings.TrimPrefix(text, hotpathVerb)) == "" {
					continue // reported by collectHotpathDirectives
				}
				out = append(out, fd)
				break
			}
		}
	}
	return out
}

// collectHotpathDirectives validates every "//perf:" comment in the
// package: a directive with an unknown verb, without a reason, or not
// attached to a function declaration's doc comment is a "directive"
// diagnostic, as a malformed suppression is in suppress.go.
func collectHotpathDirectives(pkg *Package) []Diagnostic {
	// Comments that are part of some FuncDecl's doc group are attached;
	// every other directive comment is misplaced.
	attached := map[*ast.Comment]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					attached[c] = true
				}
			}
		}
	}
	var diags []Diagnostic
	report := func(c *ast.Comment, format string, args ...any) {
		pos := pkg.Fset.Position(c.Pos())
		diags = append(diags, Diagnostic{
			Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Rule:    DirectiveRule,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text, hotpathPrefix)
				switch {
				case !ok:
				case !isHotpathVerb(text):
					report(c, "unknown //%s directive %q (want //%s <reason>); delete it", hotpathPrefix, text, hotpathVerb)
				case !attached[c]:
					report(c, "//%s directive is not a function's doc comment — the contract is function-level; move it onto the hot function or delete it", hotpathVerb)
				case strings.TrimSpace(strings.TrimPrefix(text, hotpathVerb)) == "":
					report(c, "//%s needs a written reason: //%s <why this function must stay allocation-free>", hotpathVerb, hotpathVerb)
				}
			}
		}
	}
	return diags
}

// isHotpathVerb reports whether a directive payload is exactly
// "perf:hotpath", optionally followed by whitespace and a reason
// ("perf:hotpathfoo" is an unknown verb, not a reason).
func isHotpathVerb(text string) bool {
	if !strings.HasPrefix(text, hotpathVerb) {
		return false
	}
	rest := text[len(hotpathVerb):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}
