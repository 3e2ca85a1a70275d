package lint

import (
	"go/ast"
	"strings"
)

// Index holds whole-tree facts that individual analyzers need: which method
// names have a context-accepting twin on every type that declares them, and
// which names and import paths non-test files use. Everything is purely
// syntactic — receiver types are matched by name, which is exactly why
// qualification demands unanimity across the tree.
type Index struct {
	// methodRecvs maps a method name to the set of "pkgDir.TypeName" receivers
	// declaring it.
	methodRecvs map[string]map[string]bool
	// freeFuncs records names also declared as free functions anywhere.
	freeFuncs map[string]bool
	// uses records the names of non-test files' identifiers, other than
	// top-level declarations' own names.
	uses map[string]bool
	// imports records the import paths of non-test files.
	imports map[string]bool
}

// BuildIndex scans every declaration, identifier and import of every package.
func BuildIndex(pkgs []*Package) *Index {
	ix := &Index{
		methodRecvs: make(map[string]map[string]bool),
		freeFuncs:   make(map[string]bool),
		uses:        make(map[string]bool),
		imports:     make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if !isTestFile(f) {
				ix.addUses(f.AST)
			}
			for _, decl := range f.AST.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn.Recv == nil || len(fn.Recv.List) == 0 {
					ix.freeFuncs[fn.Name.Name] = true
					continue
				}
				recv := recvTypeName(fn.Recv.List[0].Type)
				if recv == "" {
					continue
				}
				key := pkg.Dir + "." + recv
				set := ix.methodRecvs[fn.Name.Name]
				if set == nil {
					set = make(map[string]bool)
					ix.methodRecvs[fn.Name.Name] = set
				}
				set[key] = true
			}
		}
	}
	return ix
}

// addUses records f's identifier names, less its top-level declaration names,
// and its imports.
func (ix *Index) addUses(f *ast.File) {
	decls := make(map[*ast.Ident]bool)
	for _, name := range declNames(f) {
		decls[name] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !decls[id] {
			ix.uses[id.Name] = true
		}
		return true
	})
	for _, imp := range f.Imports {
		ix.imports[strings.Trim(imp.Path.Value, `"`)] = true
	}
}

// imported reports whether a non-test file imports the package in dir, a
// slash path relative to the module root.
func (ix *Index) imported(dir string) bool {
	for path := range ix.imports {
		if path == dir || strings.HasSuffix(path, "/"+dir) {
			return true
		}
	}
	return false
}

// HasCtxTwin reports whether name is a context-less API with a universal
// FooCtx twin: it is declared only as a method (never a free function), and
// every receiver type declaring it also declares name+"Ctx". Unanimity makes
// the purely name-based check sound enough to flag call sites without type
// information.
func (ix *Index) HasCtxTwin(name string) bool {
	if strings.HasSuffix(name, "Ctx") || ix.freeFuncs[name] {
		return false
	}
	recvs := ix.methodRecvs[name]
	if len(recvs) == 0 {
		return false
	}
	twins := ix.methodRecvs[name+"Ctx"]
	for r := range recvs {
		if !twins[r] {
			return false
		}
	}
	return true
}
