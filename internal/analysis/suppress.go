package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// DirectiveRule is the pseudo-rule name under which malformed or
// unknown-rule //lint: directives are reported. It cannot itself be
// suppressed.
const DirectiveRule = "directive"

const (
	ignorePrefix     = "lint:ignore"
	fileIgnorePrefix = "lint:file-ignore"
)

// suppression is one parsed, well-formed //lint: directive.
type suppression struct {
	line     int    // line the directive comment starts on
	rule     string // rule being suppressed
	fileWide bool   // true for a file-wide directive
	pos      token.Pos
	used     bool // matched at least one raw diagnostic this run
}

// suppressionSet holds every well-formed directive of one package.
type suppressionSet struct {
	byFile map[string][]*suppression
}

// suppresses reports whether d is covered by a directive: a file-wide
// ignore for its rule, or a line ignore on the diagnostic's own line or
// the line directly above it (so a directive may trail the flagged
// statement or sit on its own line immediately before it). Every
// matching directive is marked used — the record the staleness scan
// reads afterwards.
func (s suppressionSet) suppresses(d Diagnostic) bool {
	if d.Rule == DirectiveRule {
		return false
	}
	hit := false
	for _, sup := range s.byFile[d.File] {
		if sup.rule != d.Rule {
			continue
		}
		if sup.fileWide || sup.line == d.Line || sup.line == d.Line-1 {
			sup.used = true
			hit = true
		}
	}
	return hit
}

// stale returns a diagnostic for every directive that suppressed nothing:
// the rule it names ran (it is in the selected set) and produced no
// finding the directive covers, so the suppression is dead weight — and,
// worse, camouflage for a future real finding at the same site.
// Directives naming unselected rules are skipped: a -rules filter must
// not condemn suppressions it never exercised.
func (s suppressionSet) stale(pkg *Package, selected map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, sups := range s.byFile {
		for _, sup := range sups {
			if sup.used || !selected[sup.rule] {
				continue
			}
			pos := pkg.Fset.Position(sup.pos)
			diags = append(diags, Diagnostic{
				Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Rule:    DirectiveRule,
				Message: fmt.Sprintf("stale suppression: no %s finding here for this directive to suppress; delete it", sup.rule),
			})
		}
	}
	return diags
}

// collectSuppressions parses every //lint: directive in the package,
// returning the set of well-formed suppressions plus diagnostics for the
// malformed ones: a directive missing its rule or reason, or naming a
// rule that is not in the suite. Validation runs against the full rule
// registry, so a -rules filter never turns a valid suppression into a
// false "unknown rule" report.
func collectSuppressions(pkg *Package) (suppressionSet, []Diagnostic) {
	known := map[string]bool{}
	for _, r := range Rules() {
		known[r.Name] = true
	}
	set := suppressionSet{byFile: map[string][]*suppression{}}
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Rule: DirectiveRule, Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := directiveText(c.Text, "lint:")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fileWide := false
				var rest string
				switch {
				case strings.HasPrefix(text, fileIgnorePrefix):
					fileWide = true
					rest = strings.TrimPrefix(text, fileIgnorePrefix)
				case strings.HasPrefix(text, ignorePrefix):
					rest = strings.TrimPrefix(text, ignorePrefix)
				default:
					report(pos, "unknown //lint: directive %q (want lint:ignore or lint:file-ignore)", text)
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(pos, "malformed directive: want //%s <rule> <reason>", directiveName(fileWide))
					continue
				}
				rule := fields[0]
				if len(fields) < 2 {
					report(pos, "suppression of %q needs a written reason: //%s %s <reason>",
						rule, directiveName(fileWide), rule)
					continue
				}
				if !known[rule] {
					report(pos, "suppression names unknown rule %q (have %v); it has no effect",
						rule, RuleNames())
					continue
				}
				set.byFile[pos.Filename] = append(set.byFile[pos.Filename], &suppression{
					line: pos.Line, rule: rule, fileWide: fileWide, pos: c.Pos(),
				})
			}
		}
	}
	return set, diags
}

// directiveText extracts a comment's directive payload — its text from
// prefix ("lint:", "perf:") on — if it carries one.
func directiveText(comment, prefix string) (string, bool) {
	var body string
	switch {
	case strings.HasPrefix(comment, "//"):
		body = comment[2:]
	case strings.HasPrefix(comment, "/*"):
		body = strings.TrimSuffix(comment[2:], "*/")
	}
	body = strings.TrimSpace(body)
	if strings.HasPrefix(body, prefix) {
		return body, true
	}
	return "", false
}

func directiveName(fileWide bool) string {
	if fileWide {
		return fileIgnorePrefix
	}
	return ignorePrefix
}
