package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runRules runs the named rules over one package of the module at dir
// through the driver trajlint uses, and returns the diagnostics with the
// loaded package.
func runRules(t *testing.T, dir, modulePath, pkgPath string, ruleNames ...string) ([]Diagnostic, *Package) {
	t.Helper()
	rules, err := SelectRules(ruleNames)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoaderAt(dir, modulePath)
	rel := "./" + strings.TrimPrefix(pkgPath, modulePath+"/")
	diags, _, err := (&Driver{Loader: l, Rules: rules}).Run([]string{rel})
	if err != nil {
		t.Fatalf("analyze %s: %v", pkgPath, err)
	}
	pkg, err := l.Load(pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	return diags, pkg
}

// fixturePkg runs the named rules over one fixture package from
// testdata/src (module path "fixtures").
func fixturePkg(t *testing.T, pkgPath string, ruleNames ...string) ([]Diagnostic, *Package) {
	t.Helper()
	dir, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return runRules(t, dir, "fixtures", pkgPath, ruleNames...)
}

var wantRe = regexp.MustCompile(`// want:([a-z]+(?:,[a-z]+)*)`)

// goldenCheck compares the diagnostics produced for a fixture package
// against the "// want:<rule>" annotations in its source files: every
// annotated line must produce exactly the annotated rules, and no
// unannotated diagnostic may appear (which is also what proves the
// fixtures' //lint:ignore suppressions work — suppressed seeded
// violations carry no want annotation).
func goldenCheck(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	want := map[string][]string{} // "base.go:line" -> rules
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := filepath.Base(name) + ":" + strconv.Itoa(i+1)
			want[key] = append(want[key], strings.Split(m[1], ",")...)
		}
	}
	got := map[string][]string{}
	for _, d := range diags {
		key := filepath.Base(d.File) + ":" + strconv.Itoa(d.Line)
		got[key] = append(got[key], d.Rule)
	}
	for key, rules := range want {
		sort.Strings(rules)
		g := got[key]
		sort.Strings(g)
		if strings.Join(rules, ",") != strings.Join(g, ",") {
			t.Errorf("%s: want rules %v, got %v", key, rules, g)
		}
	}
	for key, rules := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected diagnostics %v", key, rules)
		}
	}
}

func TestNoGlobalRandGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/noglobalrand", "noglobalrand")
	goldenCheck(t, pkg, diags)
}

func TestFloatCompareGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/floatcompare", "floatcompare")
	goldenCheck(t, pkg, diags)
}

func TestPanicAttribGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/internal/panicattrib", "panicattrib")
	goldenCheck(t, pkg, diags)
}

func TestDeferUnlockGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/deferunlock", "deferunlock")
	goldenCheck(t, pkg, diags)
}

func TestExportedDocGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/exporteddoc", "exporteddoc")
	goldenCheck(t, pkg, diags)
}

func TestCtxFirstGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/ctxfirst", "ctxfirst")
	goldenCheck(t, pkg, diags)
}

func TestErrcheckGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/errcheck", "errcheck")
	goldenCheck(t, pkg, diags)
}

func TestLockOrderGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/lockorder", "lockorder")
	goldenCheck(t, pkg, diags)
}

func TestGoroutineLeakGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/goroutineleak", "goroutineleak")
	goldenCheck(t, pkg, diags)
}

// TestStaleSuppressionGolden: a well-formed directive that suppresses
// nothing is diagnosed under the directive pseudo-rule; live directives
// stay silent.
func TestStaleSuppressionGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/stale", "floatcompare")
	goldenCheck(t, pkg, diags)
}

// TestStaleSuppressionScopedToSelectedRules: a -rules filter must not
// condemn directives for rules it never ran.
func TestStaleSuppressionScopedToSelectedRules(t *testing.T) {
	diags, _ := fixturePkg(t, "fixtures/stale", "deferunlock")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic with floatcompare unselected: %s", d)
	}
}

// --- suppression machinery ---

// markLine returns the 1-based line of the first occurrence of marker in
// the named fixture file.
func markLine(t *testing.T, file, marker string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "src", "suppress", file))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not found in %s", marker, file)
	return 0
}

// diagAt reports whether a diagnostic of the given rule exists at
// (file base name, line).
func diagAt(diags []Diagnostic, file string, line int, rule string) bool {
	for _, d := range diags {
		if filepath.Base(d.File) == file && d.Line == line && d.Rule == rule {
			return true
		}
	}
	return false
}

func suppressDiags(t *testing.T) []Diagnostic {
	t.Helper()
	diags, _ := fixturePkg(t, "fixtures/suppress", "floatcompare")
	return diags
}

// TestSuppressLineScope: a //lint:ignore covers its own line and the next
// line, and nothing further.
func TestSuppressLineScope(t *testing.T) {
	diags := suppressDiags(t)
	// The comparison directly under the directive is suppressed: no
	// diagnostic between the directive line and the MARK line.
	after := markLine(t, "line.go", "MARK:line-after-gap")
	for line := 1; line < after; line++ {
		if diagAt(diags, "line.go", line, "floatcompare") {
			t.Errorf("line.go:%d: float comparison under the directive should be suppressed", line)
		}
	}
	// The comparison two lines further down is out of scope and fires.
	if !diagAt(diags, "line.go", after, "floatcompare") {
		t.Errorf("line.go:%d: comparison beyond the directive's one-line scope must fire", after)
	}
	// A trailing directive suppresses its own line.
	trail := markLine(t, "line.go", "a trailing directive covers its own line")
	if diagAt(diags, "line.go", trail, "floatcompare") {
		t.Errorf("line.go:%d: trailing directive should suppress its own line", trail)
	}
}

// TestSuppressWrongRuleName: naming the wrong rule (known or unknown)
// does not suppress, and an unknown name is itself diagnosed.
func TestSuppressWrongRuleName(t *testing.T) {
	diags := suppressDiags(t)
	known := markLine(t, "wrongrule.go", "MARK:wrong-known-rule")
	if !diagAt(diags, "wrongrule.go", known, "floatcompare") {
		t.Errorf("wrongrule.go:%d: suppression naming a different rule must not suppress floatcompare", known)
	}
	unknown := markLine(t, "wrongrule.go", "MARK:unknown-rule")
	if !diagAt(diags, "wrongrule.go", unknown, "floatcompare") {
		t.Errorf("wrongrule.go:%d: suppression naming an unknown rule must not suppress floatcompare", unknown)
	}
	directive := markLine(t, "wrongrule.go", "MARK:bad-directive")
	if !diagAt(diags, "wrongrule.go", directive, DirectiveRule) {
		t.Errorf("wrongrule.go:%d: unknown rule name in a directive must be diagnosed", directive)
	}
}

// TestSuppressMissingReason: a directive without a written reason is
// malformed — it is diagnosed and does not suppress.
func TestSuppressMissingReason(t *testing.T) {
	diags := suppressDiags(t)
	line := markLine(t, "noreason.go", "MARK:no-reason")
	if !diagAt(diags, "noreason.go", line, "floatcompare") {
		t.Errorf("noreason.go:%d: reasonless directive must not suppress", line)
	}
	if !diagAt(diags, "noreason.go", line-1, DirectiveRule) {
		t.Errorf("noreason.go:%d: reasonless directive must be diagnosed", line-1)
	}
}

// TestSuppressFileScope: //lint:file-ignore covers every finding of the
// rule in the file, regardless of distance from the directive.
func TestSuppressFileScope(t *testing.T) {
	diags := suppressDiags(t)
	for _, marker := range []string{"MARK:filewide-one", "MARK:filewide-two"} {
		line := markLine(t, "filewide.go", marker)
		if diagAt(diags, "filewide.go", line, "floatcompare") {
			t.Errorf("filewide.go:%d: file-wide suppression must cover this finding", line)
		}
	}
	for _, d := range diags {
		if filepath.Base(d.File) == "filewide.go" {
			t.Errorf("filewide.go: unexpected diagnostic %v", d)
		}
	}
}

// --- framework plumbing ---

func TestSelectRulesUnknown(t *testing.T) {
	if _, err := SelectRules([]string{"nosuchrule"}); err == nil {
		t.Fatal("SelectRules must reject unknown rule names")
	}
	rules, err := SelectRules(nil)
	if err != nil || len(rules) < 6 {
		t.Fatalf("SelectRules(nil) = %d rules, err %v; want the full suite", len(rules), err)
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("pattern expansion must skip testdata, got %s", p)
		}
	}
	found := false
	for _, p := range paths {
		if p == "traj2hash/internal/engine" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected traj2hash/internal/engine in %v", paths)
	}
}

// TestRepoIsLintClean gates the whole tree: every contract the rule suite
// encodes holds (or is explicitly suppressed with a reason) in the
// repository itself. This is the same check, through the same driver,
// that scripts/ci.sh runs via cmd/trajlint.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree type-check is slow; run without -short")
	}
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := (&Driver{Loader: l, Rules: Rules()}).Run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestModuleRequiresNothing is the stdlib-only contract: with no require
// (and so nothing to replace) in go.mod, `go build` itself refuses any
// import that is neither standard library nor module-local.
func TestModuleRequiresNothing(t *testing.T) {
	data, err := os.ReadFile("../../go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "require") || strings.HasPrefix(line, "replace") {
			t.Errorf("go.mod:%d: %q — the module is stdlib-only and must require nothing", i+1, line)
		}
	}
}
