package analysis

import (
	"go/ast"
	"go/token"
)

// ruleExportedDoc keeps the public surface documented: in a non-main,
// non-internal package (for this module, the traj2hash facade itself),
// every exported top-level declaration needs a doc comment, and the
// package needs a package comment. Grouped const/var/type declarations
// are covered by a comment on the group. The internal/ packages are
// exempt — their contracts live in DESIGN.md and the other rules.
var ruleExportedDoc = &Rule{
	Name: "exporteddoc",
	Doc:  "exported identifiers of public packages need doc comments (documented-facade contract)",
	Fix:  "add a doc comment beginning with the identifier's name directly above the declaration",
	Run:  runExportedDoc,
}

func runExportedDoc(p *Pass) {
	if p.Pkg.Name == "main" || isInternalPath(p.Pkg.Path) {
		return
	}
	// stubFix inserts a `// Name TODO: document.` stub comment directly
	// before pos, which must sit at the start of a top-level line. The
	// stub resolves the diagnostic mechanically (the declaration gains a
	// doc comment) while keeping the TODO visible for a human pass — the
	// contract is "documented surface", and an honest placeholder beats a
	// silent gap.
	stubFix := func(pos token.Pos, text string) *Fix {
		return &Fix{
			Message: "insert a stub doc comment (keep the TODO until it is written for real)",
			Edits:   []Edit{p.editAt(pos, pos, "// "+text+"\n")},
		}
	}
	hasPkgDoc := false
	for _, f := range p.Pkg.Files {
		if realDoc(f.Doc) {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc && len(p.Pkg.Files) > 0 {
		f := p.Pkg.Files[0]
		p.ReportFix(f.Name.Pos(), stubFix(f.Package, "Package "+p.Pkg.Name+" TODO: document."),
			"package %s has no package comment", p.Pkg.Name)
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
					p.ReportFix(d.Pos(), stubFix(d.Pos(), d.Name.Name+" TODO: document."),
						"exported %s %s has no doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				// Stub insertion is only mechanical for an ungrouped decl,
				// where the spec starts its own top-level line; specs inside
				// a ( ... ) group report fix-less.
				grouped := d.Lparen.IsValid()
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !realDoc(d.Doc) && !realDoc(s.Doc) {
							var fix *Fix
							if !grouped {
								fix = stubFix(d.Pos(), s.Name.Name+" TODO: document.")
							}
							p.ReportFix(s.Pos(), fix, "exported type %s has no doc comment", s.Name.Name)
						}
					case *ast.ValueSpec:
						if realDoc(d.Doc) || realDoc(s.Doc) {
							continue
						}
						for _, name := range s.Names {
							if name.IsExported() {
								var fix *Fix
								if !grouped {
									fix = stubFix(d.Pos(), name.Name+" TODO: document.")
								}
								p.ReportFix(name.Pos(), fix, "exported %s %s has no doc comment",
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
