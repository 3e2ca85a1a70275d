package lint

import (
	"go/ast"
	"strings"
)

// Shipped flags an exported top-level function, method, type, var or const
// declared in a non-test file under internal/ whose name no non-test file of
// the tree uses. Such a declaration is surface that no daemon, example or
// benchmark reaches: delete it, give it a caller in cmd/ or examples/, or,
// for a test seam or test harness, waive it with
//
//	//lint:allow shipped (reason)
//
// A use is any identifier with that name other than a top-level declaration's
// own, so the check matches by name: it never flags a used name, and a
// method reached only through a standard-library interface (errors.Is
// calling Unwrap, say) needs a waiver. A package that no non-test file
// imports, such as a test-only helper package, is skipped.
var Shipped = &Analyzer{
	Name: "shipped",
	Doc:  "flag exported internal/ declarations that no non-test file uses",
	Run:  runShipped,
}

func runShipped(p *Pass) {
	if !strings.HasPrefix(p.Pkg.Dir, "internal/") || !p.Index.imported(p.Pkg.Dir) {
		return
	}
	for _, f := range p.Pkg.Files {
		if isTestFile(f) {
			continue
		}
		for _, name := range declNames(f.AST) {
			if name.IsExported() && !p.Index.uses[name.Name] {
				p.Reportf(name.Pos(), "%s has no use outside tests; delete it, call it from cmd/ or examples/, or waive a test seam with //lint:allow shipped (reason)", name.Name)
			}
		}
	}
}

// declNames returns the name idents of f's top-level declarations: funcs,
// methods, types, vars and consts.
func declNames(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			out = append(out, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					out = append(out, s.Names...)
				}
			}
		}
	}
	return out
}

func isTestFile(f *File) bool { return strings.HasSuffix(f.Path, "_test.go") }
