// Package lint is a small, dependency-free static-analysis framework for the
// platform's own Go sources: the "prosevet-go" suite. It mirrors the shape of
// go/analysis — named analyzers receive a parsed package and report
// position-tagged diagnostics — but is built on the standard library's go/ast
// and go/parser only, so it runs in hermetic builds with no module downloads.
//
// Analyzers work purely syntactically (there is no type information), so each
// one is designed to over-approximate conservatively: qualification rules are
// computed across the whole tree first (see Index) and a finding can be waived
// at the use site with a
//
//	//lint:allow <analyzer>[,<analyzer>...]
//
// comment on the flagged line or the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// File is one parsed Go source file.
type File struct {
	Path string // slash path relative to the load root
	AST  *ast.File
	// allow maps line numbers to the analyzer names waived on that line via
	// //lint:allow comments.
	allow map[int]map[string]bool
}

// Package groups the files of one directory.
type Package struct {
	Dir   string // slash path relative to the load root; "." for the root
	Files []*File
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// Pass hands an analyzer one package plus the cross-package Index, and
// collects its diagnostics.
type Pass struct {
	Fset     *token.FileSet
	Pkg      *Package
	Index    *Index
	analyzer *Analyzer
	files    map[string]*File // by fset filename, for waiver lookup
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless the line (or the line above it)
// carries a //lint:allow waiver for this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if f := p.files[position.Filename]; f != nil {
		if f.allow[position.Line][p.analyzer.Name] || f.allow[position.Line-1][p.analyzer.Name] {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Load parses every non-test .go file under root (skipping .git, testdata and
// vendor directories) into per-directory packages.
func Load(root string) (*token.FileSet, []*Package, error) {
	fset := token.NewFileSet()
	byDir := make(map[string]*Package)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		name := info.Name()
		if info.IsDir() {
			if name == ".git" || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := ParseFile(fset, path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f.Path = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		pkg := byDir[dir]
		if pkg == nil {
			pkg = &Package{Dir: dir}
			byDir[dir] = pkg
		}
		pkg.Files = append(pkg.Files, f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	pkgs := make([]*Package, 0, len(byDir))
	for _, pkg := range byDir {
		sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Path < pkg.Files[j].Path })
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Dir < pkgs[j].Dir })
	return fset, pkgs, nil
}

// ParseFile parses one file (with comments, for waivers).
func ParseFile(fset *token.FileSet, path string) (*File, error) {
	astF, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return &File{Path: path, AST: astF, allow: waivers(fset, astF)}, nil
}

// waivers extracts //lint:allow comments by line.
func waivers(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:allow") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			names := out[line]
			if names == nil {
				names = make(map[string]bool)
				out[line] = names
			}
			// Anything after the analyzer list — conventionally a
			// parenthesised reason — is ignored.
			for _, name := range strings.Split(strings.TrimSpace(strings.TrimPrefix(text, "lint:allow")), ",") {
				if fields := strings.Fields(name); len(fields) > 0 {
					names[fields[0]] = true
				}
			}
		}
	}
	return out
}

// Run executes every analyzer over every package and returns the combined
// diagnostics sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	index := BuildIndex(pkgs)
	files := make(map[string]*File)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files[fset.Position(f.AST.Pos()).Filename] = f
		}
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Fset: fset, Pkg: pkg, Index: index, analyzer: a, files: files, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// importName returns the local name under which f imports path, "" if it
// does not.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

// recvTypeName unwraps a receiver type expression to its named type.
func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}
