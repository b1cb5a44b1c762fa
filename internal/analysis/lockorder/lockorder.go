// Package lockorder builds the static lock graph over the kernel's
// per-subsystem mutexes and checks it for cycles and for acquisitions
// that contradict the declared nesting order.
//
// A lock class is (owning struct type, mutex field) — ipc.alienTable.mu,
// rfs.blockCache.mu — so every instance of a shard shares a class. The
// analyzer tracks the may-held set along each function's CFG; acquiring
// class B while A is held records the edge A→B. Calls to other module
// functions consult a transitive may-acquire summary (computed to
// fixpoint across every loaded package), so handleSend holding the
// alien-table mutex while calling into the proc table records
// alienTable.mu→procShard.mu without any annotation. A call to a method
// of an instantiated generic type (opTable[*pendingSend].add) uses the
// summary of its generic declaration, and the lock class of a generic
// type's mutex is the type's name without its type arguments, so every
// instantiation shares one class.
//
// Reported: cycles in the graph (distinct classes acquired in both
// orders somewhere in the program), and edges that invert the declared
// partial order. Self-edges (two instances of one class) and calls
// through dynamic function values (e.g. blockCache's write callback)
// are out of scope — the first needs instance identity, the second a
// pointer analysis; both are documented limitations.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"vkernel/internal/analysis"
	"vkernel/internal/analysis/cfg"
	"vkernel/internal/analysis/load"
)

// New builds the analyzer with a declared partial order: earlier
// classes must be acquired before later ones whenever both are held.
func New(order []string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc:  "mutexes must be acquired cycle-free and in the declared nesting order",
		Run: func(pass *analysis.Pass) []analysis.Diagnostic {
			return check(pass, order)
		},
	}
}

// lockRef is one Lock/RLock (acquire=true) or Unlock/RUnlock on a
// classified mutex.
type lockRef struct {
	class   string
	acquire bool
	pos     token.Pos
}

// classOf names the lock class of a mutex selector receiver: the named
// struct type owning the field, qualified by package name.
func classOf(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tv, ok := info.Types[inner.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", false
	}
	return fmt.Sprintf("%s.%s.%s", n.Obj().Pkg().Name(), n.Obj().Name(), inner.Sel.Name), true
}

// mutexRef classifies a call as a lock operation on a class.
func mutexRef(info *types.Info, call *ast.CallExpr) (lockRef, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockRef{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockRef{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return lockRef{}, false
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return lockRef{}, false
	}
	if name := n.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return lockRef{}, false
	}
	class, ok := classOf(info, sel)
	if !ok {
		return lockRef{}, false
	}
	return lockRef{class: class, acquire: acquire, pos: call.Pos()}, true
}

// event is either a lock op or a call with a may-acquire summary.
type event struct {
	lock   *lockRef
	callee *types.Func
	pos    token.Pos
}

// eventsIn extracts lock ops and resolvable calls from one CFG node in
// source order. Goroutine bodies and deferred calls are excluded: a
// spawned goroutine acquires on its own stack (no held-while edge), and
// deferred unlocks keep the lock held to function end by design.
func eventsIn(info *types.Info, node ast.Node) []event {
	var evs []event
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt, *ast.FuncLit:
			_ = n
			return false
		case *ast.CallExpr:
			if ref, ok := mutexRef(info, n); ok {
				evs = append(evs, event{lock: &ref, pos: n.Pos()})
				return true
			}
			var id *ast.Ident
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			if id != nil {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					evs = append(evs, event{callee: fn.Origin(), pos: n.Pos()})
				}
			}
		}
		return true
	})
	return evs
}

type edge struct{ from, to string }

type grapher struct {
	pass  *analysis.Pass
	sums  map[*types.Func]map[string]bool
	edges map[edge]token.Pos
}

// summaries computes, to fixpoint, the set of lock classes each module
// function may acquire directly or through module callees.
func summaries(pass *analysis.Pass) map[*types.Func]map[string]bool {
	type fn struct {
		obj  *types.Func
		body *ast.BlockStmt
		pkg  *load.Package
	}
	var fns []fn
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					fns = append(fns, fn{obj: obj, body: fd.Body, pkg: pkg})
				}
			}
		}
	}
	sums := make(map[*types.Func]map[string]bool, len(fns))
	for _, f := range fns {
		sums[f.obj] = make(map[string]bool)
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			s := sums[f.obj]
			ast.Inspect(f.body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt, *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					if ref, ok := mutexRef(f.pkg.Info, n); ok {
						if ref.acquire && !s[ref.class] {
							s[ref.class] = true
							changed = true
						}
						return true
					}
					var id *ast.Ident
					switch fun := n.Fun.(type) {
					case *ast.Ident:
						id = fun
					case *ast.SelectorExpr:
						id = fun.Sel
					}
					if id != nil {
						if callee, ok := f.pkg.Info.Uses[id].(*types.Func); ok {
							for class := range sums[callee.Origin()] {
								if !s[class] {
									s[class] = true
									changed = true
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	return sums
}

// heldState maps class -> may-held count.
type heldState map[string]int

func (h heldState) clone() heldState {
	c := make(heldState, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// join takes the per-class max (may-held), reporting change.
func (h heldState) join(o heldState) bool {
	changed := false
	for k, v := range o {
		if v > h[k] {
			h[k] = v
			changed = true
		}
	}
	return changed
}

func (g *grapher) record(from, to string, pos token.Pos) {
	if from == to {
		return
	}
	e := edge{from: from, to: to}
	if _, ok := g.edges[e]; !ok {
		g.edges[e] = pos
	}
}

func (g *grapher) scanFunc(pkg *load.Package, body *ast.BlockStmt) {
	cg := cfg.New(body)
	in := make(map[*cfg.Block]heldState)
	in[cg.Entry] = heldState{}
	work := []*cfg.Block{cg.Entry}
	onWork := map[*cfg.Block]bool{cg.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		onWork[blk] = false
		h := in[blk].clone()
		for _, node := range blk.Nodes {
			for _, ev := range eventsIn(pkg.Info, node) {
				switch {
				case ev.lock != nil && ev.lock.acquire:
					for held, n := range h {
						if n > 0 {
							g.record(held, ev.lock.class, ev.pos)
						}
					}
					if h[ev.lock.class] < 4 {
						h[ev.lock.class]++
					}
				case ev.lock != nil:
					if h[ev.lock.class] > 0 {
						h[ev.lock.class]--
					}
				case ev.callee != nil:
					for class := range g.sums[ev.callee] {
						for held, n := range h {
							if n > 0 {
								g.record(held, class, ev.pos)
							}
						}
					}
				}
			}
		}
		for _, e := range blk.Succs {
			dst, ok := in[e.To]
			if !ok {
				dst = heldState{}
				in[e.To] = dst
			}
			if dst.join(h) && !onWork[e.To] {
				onWork[e.To] = true
				work = append(work, e.To)
			}
		}
	}
}

// Graph computes the full lock-order edge set (exported so cmd/vlint
// can dump it when declaring or revising the order).
func Graph(pass *analysis.Pass) map[string]map[string]token.Pos {
	g := &grapher{pass: pass, sums: summaries(pass), edges: make(map[edge]token.Pos)}
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						g.scanFunc(pkg, n.Body)
					}
				case *ast.FuncLit:
					g.scanFunc(pkg, n.Body)
				}
				return true
			})
		}
	}
	out := make(map[string]map[string]token.Pos)
	for e, pos := range g.edges {
		if out[e.from] == nil {
			out[e.from] = make(map[string]token.Pos)
		}
		out[e.from][e.to] = pos
	}
	return out
}

func check(pass *analysis.Pass, order []string) []analysis.Diagnostic {
	graph := Graph(pass)
	var diags []analysis.Diagnostic

	// Cycle detection: iterative DFS over the class graph.
	nodes := make([]string, 0, len(graph))
	for n := range graph {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	color := make(map[string]int) // 0 white, 1 gray, 2 black
	var stack []string
	var visit func(n string)
	visit = func(n string) {
		color[n] = 1
		stack = append(stack, n)
		tos := make([]string, 0, len(graph[n]))
		for to := range graph[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			switch color[to] {
			case 0:
				visit(to)
			case 1:
				// Back edge: the cycle is the stack suffix from `to`.
				i := 0
				for j, s := range stack {
					if s == to {
						i = j
						break
					}
				}
				cyc := append(append([]string{}, stack[i:]...), to)
				diags = append(diags, analysis.Diagnostic{
					Pos:     graph[n][to],
					Message: fmt.Sprintf("lock cycle: %s — some execution acquires these classes in both orders", strings.Join(cyc, " → ")),
				})
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = 2
	}
	for _, n := range nodes {
		if color[n] == 0 {
			visit(n)
		}
	}

	// Declared-order violations.
	rank := make(map[string]int, len(order))
	for i, c := range order {
		rank[c] = i + 1
	}
	for from, tos := range graph {
		rf, ok := rank[from]
		if !ok {
			continue
		}
		for to, pos := range tos {
			rt, ok := rank[to]
			if !ok || rf <= rt {
				continue
			}
			diags = append(diags, analysis.Diagnostic{
				Pos: pos,
				Message: fmt.Sprintf("acquires %s while holding %s, against the declared order (%s before %s)",
					to, from, to, from),
			})
		}
	}
	return diags
}
