package lint

import (
	"go/ast"
)

// CtxTwin flags calls to a context-less API from a function that has a
// context.Context in scope, when every type declaring that API also offers a
// FooCtx twin. Such calls silently drop cancellation and the caller's trace.
//
// Every other operation takes its context first, so three twins remain:
// Base.AdaptNode/AdaptNodeCtx, Receiver.Install/InstallCtx and
// Weaver.Insert/InsertCtx. They remain because cmd/benchledger calls their
// context-less forms, and its calls are pinned until the benchmark's next
// revision (ROADMAP item 1).
var CtxTwin = &Analyzer{
	Name: "ctxtwin",
	Doc:  "flag Foo(...) calls with a context.Context in scope when FooCtx exists on every declaring type",
	Run:  runCtxTwin,
}

func runCtxTwin(p *Pass) {
	for _, f := range p.Pkg.Files {
		ctxName := importName(f.AST, "context")
		if ctxName == "" || ctxName == "_" {
			continue
		}
		imports := make(map[string]bool)
		for _, imp := range f.AST.Imports {
			path := imp.Path.Value[1 : len(imp.Path.Value)-1]
			imports[importName(f.AST, path)] = true
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasCtxParam(fn.Type, ctxName) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				// A nested function literal without its own ctx param still
				// closes over the outer one; keep inspecting.
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				// Skip pkg.Func calls: only method-style x.Foo(...) can have a
				// receiver-declared twin.
				if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] {
					return true
				}
				// The twin wrapper itself (FooCtx delegating to Foo after
				// recording the context) is the one legitimate caller.
				if fn.Name.Name == sel.Sel.Name+"Ctx" {
					return true
				}
				if p.Index.HasCtxTwin(sel.Sel.Name) {
					p.Reportf(sel.Pos(), "%s drops the in-scope context.Context; call %sCtx", sel.Sel.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// hasCtxParam reports whether the function type declares a parameter of type
// <ctxName>.Context.
func hasCtxParam(ft *ast.FuncType, ctxName string) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == ctxName {
			return true
		}
	}
	return false
}
