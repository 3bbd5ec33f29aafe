package analysis

// The compiler-diagnostics backend behind the perf rules. The escape
// analysis and bounds-check-elimination facts the hotpathalloc and
// hotpathbce rules need are not derivable from syntax or go/types — they
// are properties of the optimizer — so this backend shells out to the
// real compiler:
//
//	go build -gcflags='-m -d=ssa/check_bce/debug=1' <import path>
//
// and parses the position-tagged diagnostic stream from stderr
// (stdlib-only: os/exec plus line splitting). Each line has the shape
//
//	dir/file.go:line:col: message
//
// with paths relative to the module root (the command's working
// directory). The messages of interest:
//
//	"... escapes to heap"      a value is heap-allocated here
//	"moved to heap: x"         a local variable is forced to the heap
//	"Found IsInBounds"         a bounds check survived optimization
//	"Found IsSliceInBounds"    a slice-bounds check survived
//
// Crucially the compiler re-attributes diagnostics of inlined callees to
// the call site, so an allocation inside an inlined helper is reported
// inside the calling hot function — exactly the attribution the rules
// want. Non-inlined module-local callees are handled by the rules
// themselves via the call graph (rule_hotpathalloc.go).
//
// Results are memoized per package on the Loader (three rules share one
// compile), and a package with no //perf:hotpath mark is never compiled
// — PerfCompileCount makes both provable in tests.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// perfGcflags are the compiler flags that produce the escape-analysis
// and BCE diagnostic stream.
const perfGcflags = "-m -d=ssa/check_bce/debug=1"

// perfCompileCount counts compiler invocations made by this process —
// the observable the driver tests use to prove a markless package never
// compiles.
var perfCompileCount atomic.Int64

// PerfCompileCount returns the number of `go build` diagnostic compiles
// this process has performed (test observability for the compile memo).
func PerfCompileCount() int64 { return perfCompileCount.Load() }

// CompilerDiag is one position-tagged compiler diagnostic.
type CompilerDiag struct {
	File      string // absolute path
	Line, Col int
	Message   string
}

// IsHeapAlloc reports whether the diagnostic marks a runtime heap
// allocation: a value escaping to the heap (composite literals, make,
// closures, string conversions, interface boxing) or a variable moved to
// it. One escape is exempt: a string *literal* escaping (the message
// quotes the operand, so it starts with a double quote) is an interface
// conversion of a constant — e.g. panic("pkg: message") — which the
// compiler materializes as static read-only data, never a runtime
// allocation. Constant-string panics are exactly how hot functions keep
// their guard panics allocation-free, so the exemption is load-bearing.
func (d CompilerDiag) IsHeapAlloc() bool {
	if strings.HasSuffix(d.Message, "escapes to heap") {
		return !strings.HasPrefix(d.Message, `"`)
	}
	return strings.HasPrefix(d.Message, "moved to heap:")
}

// IsBoundsCheck reports whether the diagnostic marks a bounds check that
// survived the compiler's bounds-check-elimination pass.
func (d CompilerDiag) IsBoundsCheck() bool {
	return d.Message == "Found IsInBounds" || d.Message == "Found IsSliceInBounds"
}

// perfDiagSet holds one package's parsed compiler diagnostics, or the
// error that prevented compiling it (fixture trees without a real
// go.mod, broken code — the rules degrade to no findings).
type perfDiagSet struct {
	diags  []CompilerDiag
	byFile map[string][]CompilerDiag
	err    error
}

// perfMemo is the per-Loader compile memo: one compiler invocation per
// package path per process, shared by all three perf rules and by
// cross-package callee attribution. Entries are sync.Once-guarded so the
// driver's package-level parallelism compiles each package exactly once
// without serializing distinct compiles behind one lock.
type perfMemo struct {
	mu sync.Mutex
	m  map[string]*perfEntry
}

type perfEntry struct {
	once sync.Once
	set  *perfDiagSet
}

func (m *perfMemo) entry(path string) *perfEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[path]
	if !ok {
		e = &perfEntry{}
		m.m[path] = e
	}
	return e
}

var perfMemos sync.Map // *Loader -> *perfMemo

func memoFor(l *Loader) *perfMemo {
	if v, ok := perfMemos.Load(l); ok {
		return v.(*perfMemo)
	}
	v, _ := perfMemos.LoadOrStore(l, &perfMemo{m: map[string]*perfEntry{}})
	return v.(*perfMemo)
}

// compilerDiags returns (and memoizes) the compiler diagnostics of one
// loaded package. The compile runs in the package's module root so the
// emitted relative paths resolve against it.
func compilerDiags(pkg *Package) *perfDiagSet {
	if pkg.loader == nil {
		return &perfDiagSet{err: fmt.Errorf("analysis: package %s has no loader", pkg.Path)}
	}
	e := memoFor(pkg.loader).entry(pkg.Path)
	e.once.Do(func() { e.set = runCompilerDiags(pkg) })
	return e.set
}

// runCompilerDiags performs the actual go build invocation and parse.
func runCompilerDiags(pkg *Package) *perfDiagSet {
	moduleDir := pkg.loader.ModuleDir
	args := []string{"build", "-gcflags=" + perfGcflags}
	if pkg.Name == "main" {
		// A bare `go build` of a main package drops its binary into the
		// working directory; divert it to a throwaway path.
		tmp, err := os.MkdirTemp("", "trajlint-perf-*")
		if err != nil {
			return &perfDiagSet{err: fmt.Errorf("analysis: %w", err)}
		}
		defer os.RemoveAll(tmp)
		args = append(args, "-o", filepath.Join(tmp, "out"))
	}
	args = append(args, pkg.Path)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	out, err := cmd.CombinedOutput()
	perfCompileCount.Add(1)
	if err != nil {
		return &perfDiagSet{err: fmt.Errorf("analysis: compiler diagnostics for %s: %v\n%s", pkg.Path, err, out)}
	}
	diags := parseCompilerDiags(moduleDir, string(out))
	set := &perfDiagSet{diags: diags, byFile: map[string][]CompilerDiag{}}
	for _, d := range diags {
		set.byFile[d.File] = append(set.byFile[d.File], d)
	}
	return set
}

// parseCompilerDiags extracts position-tagged diagnostics from the
// compiler's -m / check_bce output. Lines that do not parse as
// file:line:col (package headers, notes) are skipped; relative paths
// resolve against moduleDir.
func parseCompilerDiags(moduleDir, output string) []CompilerDiag {
	var out []CompilerDiag
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, ok := parseCompilerDiagLine(moduleDir, line)
		if ok {
			out = append(out, d)
		}
	}
	return out
}

// parseCompilerDiagLine parses one "file.go:line:col: message" line.
func parseCompilerDiagLine(moduleDir, line string) (CompilerDiag, bool) {
	// Split on ": " after the positional prefix; the prefix itself has
	// exactly two ':'-separated numbers after the file name.
	i := strings.Index(line, ".go:")
	if i < 0 {
		return CompilerDiag{}, false
	}
	file := line[:i+3]
	rest := line[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return CompilerDiag{}, false
	}
	ln, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return CompilerDiag{}, false
	}
	if !filepath.IsAbs(file) {
		file = filepath.Join(moduleDir, filepath.FromSlash(file))
	}
	return CompilerDiag{
		File: file, Line: ln, Col: col,
		Message: strings.TrimSpace(parts[2]),
	}, true
}

// diagsWithin returns the package's compiler diagnostics positioned
// inside the span [from, to] of the given file, in emission order.
func (s *perfDiagSet) diagsWithin(file string, from, to linecol) []CompilerDiag {
	var out []CompilerDiag
	for _, d := range s.byFile[file] {
		p := linecol{d.Line, d.Col}
		if !p.before(from) && !to.before(p) {
			out = append(out, d)
		}
	}
	return out
}

// linecol is a (line, column) pair used for span containment checks
// against compiler diagnostics.
type linecol struct{ line, col int }

func (p linecol) before(q linecol) bool {
	return p.line < q.line || (p.line == q.line && p.col < q.col)
}
