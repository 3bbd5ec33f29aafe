package analysis

import "go/ast"

// ruleExportedDoc keeps the public surface documented: in a non-main,
// non-internal package (for this module, the traj2hash facade itself),
// every exported top-level declaration needs a doc comment, and the
// package needs a package comment. Grouped const/var/type declarations
// are covered by a comment on the group. The internal/ packages are
// exempt — their contracts live in DESIGN.md and the other rules.
var ruleExportedDoc = &Rule{
	Name: "exporteddoc",
	Doc:  "exported identifiers of public packages need doc comments (documented-facade contract)",
	Run:  runExportedDoc,
}

func runExportedDoc(p *Pass) {
	if p.Pkg.Name == "main" || isInternalPath(p.Pkg.Path) {
		return
	}
	hasPkgDoc := false
	for _, f := range p.Pkg.Files {
		if realDoc(f.Doc) {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc && len(p.Pkg.Files) > 0 {
		p.Reportf(p.Pkg.Files[0].Name.Pos(), "package %s has no package comment", p.Pkg.Name)
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && exportedRecv(d) && !realDoc(d.Doc) {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					p.Reportf(d.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !realDoc(d.Doc) && !realDoc(s.Doc) {
							p.Reportf(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
						}
					case *ast.ValueSpec:
						if realDoc(d.Doc) || realDoc(s.Doc) {
							continue
						}
						for _, name := range s.Names {
							if name.IsExported() {
								p.Reportf(name.Pos(), "exported %s %s has no doc comment",
									declKind(d), name.Name)
								break
							}
						}
					}
				}
			}
		}
	}
}

// realDoc reports whether a comment group documents anything: a group
// consisting only of //lint: directives is machinery, not documentation
// (and counting it would let a suppression double as a doc comment).
func realDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if _, isDirective := directiveText(c.Text, "lint:"); !isDirective {
			return true
		}
	}
	return false
}

// exportedRecv reports whether a function's receiver (if any) names an
// exported type — methods of unexported types are not public surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.IsExported()
	}
	return true
}

func declKind(d *ast.GenDecl) string {
	if d.Tok.String() == "const" {
		return "const"
	}
	return "var"
}
