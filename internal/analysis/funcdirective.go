package analysis

// Function-level contract directives: //perf:hotpath and //det:replayed.
//
//	//perf:hotpath <reason>
//	//det:replayed <reason>
//
// placed in a function's doc comment, each marks the function as bound
// by a standing contract that a family of rules then enforces inside it.
//
// //perf:hotpath marks a serving hot path whose loops must stay
// heap-allocation-free and (where the compiler can prove it)
// bounds-check-free. The three perf rules — hotpathalloc, hotpathbce,
// allocinloop — read these marks.
//
// //det:replayed marks part of the replay surface — code whose behavior
// must be a pure function of its explicit inputs (the WAL, a snapshot, a
// checkpoint, a seed), because the system re-executes it during recovery
// or resume and compares the outcome byte-for-byte. The three det rules
// — detmaprange, detwallclock, detunordered — read these marks: inside a
// replayed function, nondeterminism sources (map iteration order
// reaching a return, wall-clock/ambient reads anywhere in the transitive
// body, goroutine-completion-order values) are findings even without a
// serialization sink, because the function's outcome IS the sink.
//
// Both directives are validated here by one implementation, exactly like
// //lint:ignore is in suppress.go: a reason is mandatory, the directive
// must be attached to a function declaration's doc comment, and anything
// else (reasonless, misplaced, unknown verb under the same prefix) is a
// diagnostic under the "directive" pseudo-rule carrying a mechanical
// delete fix.
//
// A well-formed directive on a function that currently produces no
// findings is NOT stale: the mark is a standing contract (the clean
// state is the goal), unlike a //lint:ignore which exists only to excuse
// a live finding.

import (
	"fmt"
	"go/ast"
	"os"
	"strings"
)

// funcDirective is one function-level directive: its comment prefix
// ("perf:"), its one verb ("perf:hotpath"), and the two nouns its
// diagnostics are worded with.
type funcDirective struct {
	prefix, verb string
	target       string // what the marked function is called: "move it onto the <target> function"
	reasonHint   string // what the mandatory reason must explain
}

var (
	hotpathDirective = funcDirective{
		prefix: "perf:", verb: "perf:hotpath",
		target: "hot", reasonHint: "why this function must stay allocation-free",
	}
	replayedDirective = funcDirective{
		prefix: "det:", verb: "det:replayed",
		target: "replayed", reasonHint: "why replay must reproduce this function exactly",
	}
)

// markedFunc is one function carrying a well-formed directive.
type markedFunc struct {
	decl   *ast.FuncDecl
	reason string
}

// funcs returns the package's well-formed marks in file order. Malformed
// directives are excluded here (collect reports them); a function with
// only a malformed mark is not under the contract.
func (d funcDirective) funcs(pkg *Package) []markedFunc {
	var out []markedFunc
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				text, ok := directiveText(c.Text, d.prefix)
				if !ok || !d.isVerb(text) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, d.verb))
				if reason == "" {
					continue // reported by collect
				}
				out = append(out, markedFunc{decl: fd, reason: reason})
				break
			}
		}
	}
	return out
}

// collect validates every comment under the directive's prefix in the
// package: a directive with an unknown verb, without a reason, or not
// attached to a function declaration's doc comment is a "directive"
// diagnostic with a fix that deletes it (whole line when it stands
// alone), mirroring the stale-suppression behavior of suppress.go.
func (d funcDirective) collect(pkg *Package) []Diagnostic {
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
		var fix *Fix
		if src, err := os.ReadFile(pos.Filename); err == nil {
			edit := lineEditIn(pkg.Fset, c.Pos(), src)
			start := pos.Offset
			if strings.TrimSpace(string(src[edit.Start:start])) != "" {
				edit = Edit{File: pos.Filename, Start: start, End: pkg.Fset.Position(c.End()).Offset}
			}
			fix = &Fix{Message: "delete the malformed " + strings.TrimSuffix(d.prefix, ":") + " directive", Edits: []Edit{edit}}
		}
		diags = append(diags, Diagnostic{
			Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Rule: DirectiveRule, Fix: fix,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text, d.prefix)
				switch {
				case !ok:
				case !d.isVerb(text):
					report(c, "unknown //%s directive %q (want //%s <reason>); delete it", d.prefix, text, d.verb)
				case !attached[c]:
					report(c, "//%s directive is not a function's doc comment — the contract is function-level; move it onto the %s function or delete it", d.verb, d.target)
				case strings.TrimSpace(strings.TrimPrefix(text, d.verb)) == "":
					report(c, "//%s needs a written reason: //%s <%s>", d.verb, d.verb, d.reasonHint)
				}
			}
		}
	}
	return diags
}

// isVerb reports whether a directive payload is the directive's verb —
// exactly "perf:hotpath", optionally followed by whitespace and a reason
// ("perf:hotpathfoo" is an unknown verb, not a reason).
func (d funcDirective) isVerb(text string) bool {
	if !strings.HasPrefix(text, d.verb) {
		return false
	}
	rest := text[len(d.verb):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}
