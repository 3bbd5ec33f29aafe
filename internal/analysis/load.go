package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Name is the package name from the source.
	Name string
	// Module is the module path from go.mod (the prefix of every local
	// import path).
	Module string

	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by file name

	// Types and Info hold the go/types results. Type-checking is
	// best-effort: errors are collected in TypeErrors rather than
	// aborting the load, and Info may be partial for code that does not
	// compile (rules fall back to syntax where type facts are missing).
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error

	// loader points back at the Loader that produced this package, so
	// module-aware rules (lockorder, the perf rules) can reach the
	// syntax of already loaded dependency packages and the module root.
	loader *Loader

	// declOnce/declIdx lazily memoize the *types.Func → declaration
	// index shared by the cross-function rules (see callgraph.go).
	declOnce sync.Once
	declIdx  map[*types.Func]*ast.FuncDecl
}

// Dep returns the already-loaded module-local package at the given import
// path, or nil. Dependencies are always loaded before their importers
// (type-checking forces them), so a package's module imports are always
// resolvable here; nothing is loaded on demand.
func (p *Package) Dep(path string) *Package {
	if p.loader == nil {
		return nil
	}
	if e, ok := p.loader.pkgs[path]; ok && !e.loading && e.err == nil {
		return e.pkg
	}
	return nil
}

// Loader loads module-local packages from source. Standard-library
// imports are type-checked from GOROOT source via go/importer's "source"
// compiler; module-local imports are resolved recursively by the Loader
// itself. Anything else fails to resolve — the repo's stdlib-only
// contract, which the go tool enforces first (go.mod requires nothing;
// TestModuleRequiresNothing pins that).
type Loader struct {
	// ModuleDir is the module root (the directory holding go.mod).
	ModuleDir string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadEntry
}

type loadEntry struct {
	pkg     *Package
	err     error
	loading bool
}

// NewLoader builds a loader rooted at moduleDir, reading the module path
// from its go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return NewLoaderAt(abs, modPath), nil
}

// NewLoaderAt builds a loader with an explicit module path — used by
// tests to load fixture trees that are not real modules.
func NewLoaderAt(moduleDir, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modulePath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*loadEntry{},
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			if path := strings.TrimSpace(rest); path != "" {
				return strings.Trim(path, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load loads (and memoizes) the package at the given import path, which
// must be the module path itself or start with it.
func (l *Loader) Load(path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return e.pkg, e.err
	}
	e := &loadEntry{loading: true}
	l.pkgs[path] = e
	e.pkg, e.err = l.load(path)
	e.loading = false
	return e.pkg, e.err
}

func (l *Loader) load(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Module: l.ModulePath, Fset: l.fset, loader: l}
	// Files parse in parallel: token.FileSet is synchronized, and the
	// slot-per-file layout keeps the package's file order deterministic.
	files := make([]*ast.File, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			files[i], errs[i] = parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
	}
	pkg.Files = files
	pkg.Name = pkg.Files[0].Name.Name
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		IgnoreFuncBodies: false,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	// Check returns a usable (possibly incomplete) package even when
	// TypeErrors is non-empty; the returned error repeats the first one.
	//lint:ignore errcheck Check's error duplicates the first entry already collected in TypeErrors
	pkg.Types, _ = conf.Check(path, l.fset, pkg.Files, pkg.Info)
	return pkg, nil
}

// Import implements types.Importer for the type-checker: module-local
// paths load recursively through the Loader, standard-library paths go to
// the GOROOT source importer, everything else is refused.
func (l *Loader) Import(path string) (*types.Package, error) {
	switch {
	case path == "unsafe":
		return types.Unsafe, nil
	case path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/"):
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	case IsStdImport(path):
		return l.std.Import(path)
	default:
		return nil, fmt.Errorf("analysis: non-stdlib, non-module import %q (the module is stdlib-only)", path)
	}
}

// IsStdImport reports whether an import path names a standard-library
// package: its first segment carries no dot (the convention the go tool
// itself relies on for pre-module paths).
func IsStdImport(path string) bool {
	seg, _, _ := strings.Cut(path, "/")
	return seg != "" && !strings.Contains(seg, ".")
}

// goFilesIn lists the non-test .go files of dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") ||
			strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ExpandPatterns resolves CLI package patterns into import paths. A
// trailing "/..." walks the directory tree; testdata, vendor, hidden, and
// underscore-prefixed directories are skipped, as are directories with no
// non-test Go files. Plain patterns name a single package directory
// relative to the working directory.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var paths []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				files, err := goFilesIn(p)
				if err != nil {
					return err
				}
				if len(files) > 0 {
					ip, err := l.importPathFor(p)
					if err != nil {
						return err
					}
					add(ip)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			continue
		}
		ip, err := l.importPathFor(filepath.Join(l.ModuleDir, filepath.FromSlash(pat)))
		if err != nil {
			return nil, err
		}
		add(ip)
	}
	sort.Strings(paths)
	return paths, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}
