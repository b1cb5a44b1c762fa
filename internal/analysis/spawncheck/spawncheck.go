// Package spawncheck flags unaccounted goroutines in the ipc and rfs
// packages. Every long-lived goroutine in the kernel is supposed to be
// drained at Close — transport workers join a WaitGroup, flushers and
// invalidators belong to pools, pipelined stages hand their result back
// over a channel. A bare `go func(){ ... }()` that signals completion
// to nobody is how callback wedges and shutdown hangs happen: Close
// returns while the stray goroutine still touches freed state.
//
// A goroutine is considered accounted if its body — or a same-module
// function it calls, up to three levels deep — signals completion via
// sync.WaitGroup.Done, a channel send, or a channel close. Anything
// else must either be restructured onto a pool or carry a
// `//vlint:ignore spawncheck <reason>` explaining who owns its
// lifetime.
package spawncheck

import (
	"go/ast"
	"go/types"
	"strings"

	"vkernel/internal/analysis"
	"vkernel/internal/analysis/load"
)

// Analyzer is the spawncheck checker.
var Analyzer = &analysis.Analyzer{
	Name: "spawncheck",
	Doc:  "goroutines in ipc/rfs must be accounted to a pool, WaitGroup, or channel",
	Run:  run,
}

// scopes are the package path prefixes the invariant applies to.
var scopes = []string{"vkernel/internal/ipc", "vkernel/internal/rfs"}

func inScope(path string) bool {
	for _, s := range scopes {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// maxCallDepth bounds the search through same-module callees.
const maxCallDepth = 3

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]declSite
}

type declSite struct {
	decl *ast.FuncDecl
	pkg  *load.Package
}

// buildIndex maps every module function object to its declaration, so a
// `go t.worker()` can be chased into worker's body. Object identities
// are shared across source-checked packages, so cross-package calls
// resolve too.
func buildIndex(pass *analysis.Pass) map[*types.Func]declSite {
	idx := make(map[*types.Func]declSite)
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx[obj] = declSite{decl: fd, pkg: pkg}
				}
			}
		}
	}
	return idx
}

func isWaitGroupDone(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

// callee resolves a call expression to a module function declaration.
func (c *checker) callee(info *types.Info, call *ast.CallExpr) (declSite, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return declSite{}, false
	}
	obj, _ := info.Uses[id].(*types.Func)
	if obj == nil {
		return declSite{}, false
	}
	// A method of an instantiated generic type is its own object; the
	// declaration belongs to its origin.
	site, ok := c.decls[obj.Origin()]
	return site, ok
}

// accounted reports whether the body signals completion somewhere: a
// WaitGroup.Done, a channel send, or a close — directly or in a callee.
func (c *checker) accounted(info *types.Info, body ast.Node, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if isWaitGroupDone(info, n) {
				found = true
				return false
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin || info.Uses[id] == nil {
					found = true
					return false
				}
			}
			if depth > 0 {
				if site, ok := c.callee(info, n); ok {
					if c.accounted(site.pkg.Info, site.decl.Body, depth-1) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

func run(pass *analysis.Pass) []analysis.Diagnostic {
	c := &checker{pass: pass, decls: buildIndex(pass)}
	var diags []analysis.Diagnostic
	for _, pkg := range pass.Packages {
		if !inScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				var body ast.Node
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					body = lit.Body
				} else if site, ok := c.callee(pkg.Info, g.Call); ok {
					if c.accounted(site.pkg.Info, site.decl.Body, maxCallDepth-1) {
						return true
					}
					diags = append(diags, analysis.Diagnostic{
						Pos:     g.Pos(),
						Message: "goroutine is not accounted to a WaitGroup, channel, or drained pool; Close cannot wait for it",
					})
					return true
				} else {
					// Unresolvable target (func value): nothing to inspect.
					diags = append(diags, analysis.Diagnostic{
						Pos:     g.Pos(),
						Message: "goroutine target is a dynamic function value; account it to a WaitGroup or channel at the spawn site",
					})
					return true
				}
				if !c.accounted(pkg.Info, body, maxCallDepth) {
					diags = append(diags, analysis.Diagnostic{
						Pos:     g.Pos(),
						Message: "goroutine is not accounted to a WaitGroup, channel, or drained pool; Close cannot wait for it",
					})
				}
				return true
			})
		}
	}
	return diags
}
