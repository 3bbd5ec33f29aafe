package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// --- directive validation (pure AST, fixture tree) ---

// perfMarkLine returns the 1-based line containing marker in a
// testdata/src fixture file.
func perfMarkLine(t *testing.T, pkgDir, file, marker string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "src", pkgDir, file))
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

// TestPerfDirectiveValidation: unknown verbs, reasonless marks, and
// directives not attached to a function doc are diagnosed; well-formed marks on clean functions stay silent — a
// standing contract is not a stale suppression.
func TestPerfDirectiveValidation(t *testing.T) {
	// Any selected rule will do: directive validation always runs.
	diags, _ := fixturePkg(t, "fixtures/perfdirective", "allocinloop")
	const file = "perfdirective.go"
	for name, marker := range map[string]string{
		"unknown verb":  "MARK:unknown-verb",
		"inside a body": "MARK:inside-body",
		"free-floating": "MARK:free-floating",
	} {
		line := perfMarkLine(t, "perfdirective", file, marker)
		if !diagAt(diags, file, line, DirectiveRule) {
			t.Errorf("%s (%s:%d): malformed directive not diagnosed; got %v", name, file, line, diags)
		}
	}
	// The reasonless directive is the line that is exactly
	// "//perf:hotpath" (any trailing text would become its reason).
	data, err := os.ReadFile(filepath.Join("testdata", "src", "perfdirective", file))
	if err != nil {
		t.Fatal(err)
	}
	reasonless := 0
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "//perf:hotpath" {
			reasonless = i + 1
			break
		}
	}
	if reasonless == 0 {
		t.Fatal("fixture lost its bare //perf:hotpath line")
	}
	if !diagAt(diags, file, reasonless, DirectiveRule) {
		t.Errorf("missing reason (%s:%d): reasonless directive not diagnosed; got %v", file, reasonless, diags)
	}
	for _, d := range diags {
		if d.Rule != DirectiveRule {
			t.Errorf("unexpected non-directive diagnostic: %s", d)
		}
	}
	// Exactly the four malformed directives fire — in particular the
	// well-formed mark on the clean function Hot produces nothing.
	if n := len(diags); n != 4 {
		t.Errorf("want 4 directive diagnostics, got %d: %v", n, diags)
	}
}

// TestAllocInLoopGolden: the syntactic allocation idioms fire inside
// hot loops exactly where seeded, and the ownership exemptions
// (parameter, make-with-size, reslice) and unmarked functions stay
// silent.
func TestAllocInLoopGolden(t *testing.T) {
	diags, pkg := fixturePkg(t, "fixtures/allocinloop", "allocinloop")
	goldenCheck(t, pkg, diags)
}

// --- compiler diagnostic parsing ---

func TestParseCompilerDiags(t *testing.T) {
	out := "# perfmod/hot\n" +
		"hot/hot.go:10:9: moved to heap: x\n" +
		"hot/hot.go:17:13: make([]int, n) escapes to heap\n" +
		"hot/hot.go:25:8: Found IsInBounds\n" +
		"hot/hot.go:26:8: Found IsSliceInBounds\n" +
		"hot/util.go:3:6: can inline helper\n" +
		"not a diagnostic line\n" +
		"/abs/x.go:1:1: \"lit\" escapes to heap\n"
	diags := parseCompilerDiags("/mod", out)
	if len(diags) != 6 {
		t.Fatalf("parsed %d diagnostics, want 6: %v", len(diags), diags)
	}
	if diags[0].File != filepath.FromSlash("/mod/hot/hot.go") || diags[0].Line != 10 || diags[0].Col != 9 {
		t.Errorf("relative path resolution: %+v", diags[0])
	}
	if diags[5].File != filepath.FromSlash("/abs/x.go") {
		t.Errorf("absolute path must pass through: %+v", diags[5])
	}
	wantAlloc := []bool{true, true, false, false, false, false}
	wantBCE := []bool{false, false, true, true, false, false}
	for i, d := range diags {
		if d.IsHeapAlloc() != wantAlloc[i] {
			t.Errorf("diag %d (%q): IsHeapAlloc = %v, want %v", i, d.Message, d.IsHeapAlloc(), wantAlloc[i])
		}
		if d.IsBoundsCheck() != wantBCE[i] {
			t.Errorf("diag %d (%q): IsBoundsCheck = %v, want %v", i, d.Message, d.IsBoundsCheck(), wantBCE[i])
		}
	}
}

// --- the compiler-backed rules against a real module ---

// writePerfModule lays out a compilable two-package module: perfmod/hot
// seeds one own-body escape, one non-inlined callee allocation, one
// surviving loop bounds check, and one clean hot function; perfmod/cold
// has no //perf:hotpath marks at all (it must never trigger a compile).
func writePerfModule(t testing.TB, dir string) {
	t.Helper()
	files := map[string]string{
		"go.mod": "module perfmod\n\ngo 1.22\n",
		"hot/hot.go": `// Package hot seeds real escape-analysis and BCE findings.
package hot

// Escapes moves its local to the heap by returning its address.
//
//perf:hotpath fixture: own-body escape
func Escapes(n int) *int {
	x := n + 1
	return &x
}

// alloc allocates; noinline forces the finding to travel through the
// call graph instead of the compiler's inlining re-attribution.
//
//go:noinline
func alloc(n int) []int {
	return make([]int, n)
}

// Calls allocates only through its module-local callee.
//
//perf:hotpath fixture: callee attribution
func Calls(n int) []int {
	return alloc(n)
}

// Lookup keeps a data-dependent bounds check in its loop: the prover
// cannot bound s[i] when i comes from another slice's contents.
//
//perf:hotpath fixture: surviving bounds check
func Lookup(s, idx []int) int {
	t := 0
	for _, i := range idx {
		t += s[i]
	}
	return t
}

// Clean already satisfies the whole contract.
//
//perf:hotpath fixture: clean function stays silent
func Clean(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}
`,
		"cold/cold.go": `// Package cold has no performance contracts.
package cold

// Sum is ordinary code: allocating here is nobody's business.
func Sum(xs []int) int {
	out := 0
	for _, x := range xs {
		out += x
	}
	return out
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// hasDiag reports whether some diagnostic of the rule contains every
// wanted substring.
func hasDiag(diags []Diagnostic, rule string, substrs ...string) bool {
	for _, d := range diags {
		if d.Rule != rule {
			continue
		}
		ok := true
		for _, s := range substrs {
			if !strings.Contains(d.Message, s) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestPerfRulesOnRealModule drives hotpathalloc and hotpathbce against
// code compiled by the real toolchain: the own-body escape, the
// cross-function attribution at the call site, and the loop bounds
// check are each found; the clean hot function stays silent.
func TestPerfRulesOnRealModule(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build; run without -short")
	}
	dir := t.TempDir()
	writePerfModule(t, dir)
	diags, _ := runRules(t, dir, "perfmod", "perfmod/hot", "hotpathalloc", "hotpathbce")

	if !hasDiag(diags, "hotpathalloc", "Escapes allocates", "moved to heap: x") {
		t.Errorf("own-body escape in Escapes not reported; got %v", diags)
	}
	if !hasDiag(diags, "hotpathalloc", "Calls calls alloc, which allocates", "escapes to heap") {
		t.Errorf("callee allocation not attributed to the call site in Calls; got %v", diags)
	}
	if !hasDiag(diags, "hotpathbce", "hot loop in Lookup keeps a bounds check on s[i]") {
		t.Errorf("surviving bounds check in Lookup not reported; got %v", diags)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "Clean") {
			t.Errorf("clean hot function must stay silent: %s", d)
		}
	}
}

// TestPerfMarklessPackageNeverCompiles proves the compile economics end
// to end: a driver run over the two-package module compiles exactly
// once, because perfmod/cold carries no //perf:hotpath mark and so never
// invokes the compiler.
func TestPerfMarklessPackageNeverCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build; run without -short")
	}
	dir := t.TempDir()
	writePerfModule(t, dir)
	rules, err := SelectRules([]string{"hotpathalloc", "hotpathbce", "allocinloop"})
	if err != nil {
		t.Fatal(err)
	}
	before := PerfCompileCount()
	d := &Driver{Loader: NewLoaderAt(dir, "perfmod"), Rules: rules}
	diags, stats, err := d.Run([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packages != 2 {
		t.Fatalf("stats = %+v; want both packages analyzed", stats)
	}
	if n := PerfCompileCount() - before; n != 1 {
		t.Fatalf("run made %d compiles; want exactly 1 (perfmod/hot — perfmod/cold has no marks)", n)
	}
	if len(diags) == 0 {
		t.Fatal("run found nothing; the perf module seeds three findings")
	}
	if _, ok := stats.RuleTime["hotpathalloc"]; !ok {
		t.Errorf("stats carry no hotpathalloc timing: %+v", stats.RuleTime)
	}
}
