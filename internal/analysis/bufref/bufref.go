// Package bufref checks bufpool reference ownership along every path
// of a function. The pool's convention — established in PR 3 and
// load-bearing for every zero-copy path since — is that any call
// returning a *bufpool.Buf (Get, Retain, a cache lookup) hands the
// caller one owned reference, and that reference must be consumed on
// every path out of the function: released, stored into a ref-holding
// structure, sent on a channel, or returned to the caller. A path that
// forgets is a slab leak the runtime Outstanding() check only catches
// if a test happens to drive that path; releasing twice corrupts the
// pool (the runtime panics).
//
// The analyzer runs an abstract interpretation over each function's
// CFG. A local assigned from a Buf-returning call becomes tracked
// (owned). Ownership is conditional when the call also returns an
// error or a comma-ok bool: the buffer is owned only on the err==nil /
// ok branch, and branch edges refine the state (including through `&&`
// chains, `err == SomeErr` comparisons, and tagless switches). A
// var-to-var assignment moves ownership; stores into fields, composite
// literals, append calls, channel sends, and returns consume it;
// capture by a closure or goroutine, or taking the address, escapes it
// (tracking stops — the reference has a new owner the analysis cannot
// see). Passing a tracked buffer as a plain call argument is a borrow:
// callees that retain for themselves do their own Retain.
//
// Reported: paths that reach a return with an owned (or
// possibly-owned) reference, a Release when the reference is already
// definitely released (double release — deferring a Release and then
// releasing again on a branch is the classic shape), and overwriting a
// variable that still owns a reference.
package bufref

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"vkernel/internal/analysis"
	"vkernel/internal/analysis/cfg"
	"vkernel/internal/analysis/load"
)

// Analyzer is the bufref checker.
var Analyzer = &analysis.Analyzer{
	Name: "bufref",
	Doc:  "every owned *bufpool.Buf reference must be consumed on every path",
	Run:  run,
}

const bufPkg = "vkernel/internal/bufpool"

// isBuf reports whether t is *bufpool.Buf.
func isBuf(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == bufPkg && n.Obj().Name() == "Buf"
}

// Abstract ownership bits. A var's state is a set of these (one per
// path shape flowing into the point).
const (
	bitUnowned  uint8 = 1 << iota // no reference held (nil, moved away, consumed)
	bitOwned                      // holds exactly one owned reference
	bitReleased                   // reference definitely released
	bitEscaped                    // ownership visible to code we cannot track
)

type vstate struct {
	bits   uint8
	cond   *types.Var // when set: owned iff cond==nil (error) or cond true (bool)
	condOk bool       // cond is a comma-ok bool rather than an error
}

func (v vstate) hasCond() bool { return v.cond != nil }

func (v vstate) eq(o vstate) bool {
	return v.bits == o.bits && v.cond == o.cond && v.condOk == o.condOk
}

// mayOwn reports whether any path shape still owns the reference.
func (v vstate) mayOwn() bool { return v.bits&bitOwned != 0 || v.hasCond() }

type state map[*types.Var]vstate

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func joinV(a, b vstate) vstate {
	out := vstate{bits: a.bits | b.bits}
	switch {
	case a.cond == b.cond && a.condOk == b.condOk:
		out.cond, out.condOk = a.cond, a.condOk
	case a.cond == nil:
		out.cond, out.condOk = b.cond, b.condOk
	case b.cond == nil:
		out.cond, out.condOk = a.cond, a.condOk
	default:
		// Two different conditional sources met: degrade to maybe-owned.
		out.bits |= bitOwned | bitUnowned
	}
	return out
}

func (s state) join(o state) bool {
	changed := false
	for k, ov := range o {
		sv, ok := s[k]
		if !ok {
			// Absent means "not assigned on this path": unowned.
			sv = vstate{bits: bitUnowned}
		}
		nv := joinV(sv, ov)
		if !ok || !nv.eq(sv) {
			s[k] = nv
			changed = true
		}
	}
	for k, sv := range s {
		if _, ok := o[k]; !ok {
			nv := joinV(sv, vstate{bits: bitUnowned})
			if !nv.eq(sv) {
				s[k] = nv
				changed = true
			}
		}
	}
	return changed
}

// funcAnalysis carries per-function machinery.
type funcAnalysis struct {
	pass    *analysis.Pass
	pkg     *load.Package
	diags   *[]analysis.Diagnostic
	srcPos  map[*types.Var]token.Pos
	seen    map[string]bool
	report  bool
	curPost state // state being mutated by transfer
}

func (a *funcAnalysis) info() *types.Info { return a.pkg.Info }

func (a *funcAnalysis) diag(pos token.Pos, format string, args ...any) {
	if !a.report {
		return
	}
	p := a.pass.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, msg)
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	*a.diags = append(*a.diags, analysis.Diagnostic{Pos: pos, Message: msg})
}

// localVar resolves an identifier to its variable object if it is a
// plain (non-field) variable.
func (a *funcAnalysis) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := a.info().Uses[id]
	if obj == nil {
		obj = a.info().Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

func (a *funcAnalysis) tracked(e ast.Expr) (*types.Var, bool) {
	v := a.localVar(e)
	if v == nil {
		return nil, false
	}
	_, ok := a.curPost[v]
	return v, ok
}

// bufMethodCall matches x.Release() / x.Retain() on a *Buf receiver
// where x is a plain identifier.
func (a *funcAnalysis) bufMethodCall(call *ast.CallExpr, name string) (*types.Var, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	tv, ok := a.info().Types[sel.X]
	if !ok || tv.Type == nil || !isBuf(tv.Type) {
		return nil, false
	}
	v, ok := a.tracked(sel.X)
	if !ok {
		return nil, false
	}
	return v, true
}

func (a *funcAnalysis) release(v *types.Var, pos token.Pos) {
	st := a.curPost[v]
	if st.bits == bitReleased && !st.hasCond() {
		a.diag(pos, "double release of %s: the reference was already released on every path here", v.Name())
	}
	nb := uint8(0)
	if st.bits&bitUnowned != 0 {
		nb |= bitUnowned
	}
	if st.bits&(bitOwned|bitReleased) != 0 || st.hasCond() {
		nb |= bitReleased
	}
	if st.bits&bitEscaped != 0 {
		nb |= bitEscaped
	}
	if nb == 0 {
		nb = bitReleased
	}
	a.curPost[v] = vstate{bits: nb}
}

func (a *funcAnalysis) consume(v *types.Var) { a.curPost[v] = vstate{bits: bitUnowned} }

func (a *funcAnalysis) escape(v *types.Var) { a.curPost[v] = vstate{bits: bitEscaped} }

func (a *funcAnalysis) retainBare(v *types.Var, pos token.Pos) {
	st := a.curPost[v]
	if st.bits&bitOwned != 0 || st.hasCond() {
		// A second owned reference on one variable: beyond the
		// single-reference domain, stop tracking rather than misreport.
		a.escape(v)
		return
	}
	a.curPost[v] = vstate{bits: bitOwned}
	a.srcPos[v] = pos
}

// source marks v as freshly owned from a call, with optional
// conditional ownership.
func (a *funcAnalysis) source(v *types.Var, pos token.Pos, cond *types.Var, condOk bool) {
	if st, ok := a.curPost[v]; ok && st.mayOwn() {
		a.diag(pos, "overwriting %s while it may still own a reference (acquired at %s)",
			v.Name(), a.pass.Fset.Position(a.srcPos[v]))
	}
	a.curPost[v] = vstate{bits: 0, cond: cond, condOk: condOk}
	if cond == nil {
		a.curPost[v] = vstate{bits: bitOwned}
	}
	a.srcPos[v] = pos
}

// invalidateCond degrades any state conditioned on a variable that is
// being reassigned: the old err/ok value is gone, so conditional
// ownership becomes plain maybe-owned.
func (a *funcAnalysis) invalidateCond(w *types.Var) {
	for k, st := range a.curPost {
		if st.cond == w {
			st.cond, st.condOk = nil, false
			st.bits |= bitOwned | bitUnowned
			a.curPost[k] = st
		}
	}
}

// kill overwrites a tracked var with an untracked value.
func (a *funcAnalysis) kill(v *types.Var, pos token.Pos) {
	if st, ok := a.curPost[v]; ok {
		if st.mayOwn() {
			a.diag(pos, "overwriting %s while it may still own a reference (acquired at %s)",
				v.Name(), a.pass.Fset.Position(a.srcPos[v]))
		}
		a.curPost[v] = vstate{bits: bitUnowned}
	}
}

// genericScan walks an expression applying the non-positional effects:
// Release/Retain calls, closure captures, address-taking, composite
// literals, and append arguments.
func (a *funcAnalysis) genericScan(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			a.closureCapture(m)
			return false
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if v, ok := a.tracked(m.X); ok {
					a.escape(v)
				}
			}
		case *ast.CompositeLit:
			a.consumeComposite(m)
			return false
		case *ast.CallExpr:
			if v, ok := a.bufMethodCall(m, "Release"); ok {
				a.release(v, m.Pos())
				return false
			}
			if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "append" {
				for _, arg := range m.Args {
					a.consumeExpr(arg)
				}
				return false
			}
		}
		return true
	})
}

// closureCapture escapes tracked vars used inside a function literal,
// except vars whose only use there is a Release call (the deferred
// cleanup-closure idiom) — those count as released.
func (a *funcAnalysis) closureCapture(lit *ast.FuncLit) {
	released := make(map[*types.Var]token.Pos)
	other := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if v, ok := a.bufMethodCall(call, "Release"); ok {
				released[v] = call.Pos()
				return false
			}
		}
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := a.tracked(id); ok {
				other[v] = true
			}
		}
		return true
	})
	for v := range other {
		a.escape(v)
	}
	for v, pos := range released {
		if !other[v] {
			a.release(v, pos)
		}
	}
}

// consumeComposite consumes tracked vars stored directly into a
// composite literal.
func (a *funcAnalysis) consumeComposite(lit *ast.CompositeLit) {
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			el = kv.Value
		}
		a.consumeExpr(el)
	}
}

// consumeExpr applies store semantics to an expression whose value is
// kept by someone else (composite element, send, return operand).
func (a *funcAnalysis) consumeExpr(e ast.Expr) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := a.tracked(e); ok {
			a.consume(v)
		}
	case *ast.CompositeLit:
		a.consumeComposite(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			a.consumeExpr(e.X)
			return
		}
		a.genericScan(e)
	case *ast.CallExpr:
		a.callEffects(e)
	default:
		a.genericScan(e)
	}
}

// callEffects processes a call's own effects: argument borrows,
// composite-literal args, closure args, plus Release/Retain receivers.
func (a *funcAnalysis) callEffects(call *ast.CallExpr) {
	if v, ok := a.bufMethodCall(call, "Release"); ok {
		a.release(v, call.Pos())
		return
	}
	a.genericScan(call.Fun)
	isAppend := false
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		isAppend = true
	}
	for _, arg := range call.Args {
		if isAppend {
			a.consumeExpr(arg)
			continue
		}
		switch ast.Unparen(arg).(type) {
		case *ast.Ident:
			// Borrow: callee retains for itself if it keeps the buffer.
		default:
			a.genericScan(arg)
		}
	}
}

// sourceResults inspects a call's result types and marks LHS vars.
func (a *funcAnalysis) assignFromCall(lhs []ast.Expr, call *ast.CallExpr, pos token.Pos) {
	a.callEffects(call)
	tv, ok := a.info().Types[call]
	if !ok || tv.Type == nil {
		return
	}
	var results []types.Type
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			results = append(results, tup.At(i).Type())
		}
	} else {
		results = []types.Type{tv.Type}
	}
	if len(results) != len(lhs) {
		return
	}
	// Locate conditional-ownership companions: an error result, or a
	// bool in a two-result (value, ok) shape.
	var condVar *types.Var
	var condOk bool
	for i, rt := range results {
		if isErrorType(rt) {
			condVar = a.localVar(lhs[i])
			condOk = false
		}
	}
	if condVar == nil && len(results) >= 2 && isBoolType(results[len(results)-1]) {
		condVar = a.localVar(lhs[len(lhs)-1])
		condOk = true
	}
	for _, l := range lhs {
		if v := a.localVar(l); v != nil {
			a.invalidateCond(v)
		}
	}
	for i, rt := range results {
		v := a.localVar(lhs[i])
		if v == nil {
			continue
		}
		if isBuf(rt) {
			a.source(v, pos, condVar, condOk)
		} else {
			a.kill(v, pos)
		}
	}
}

func isErrorType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func (a *funcAnalysis) assign(n *ast.AssignStmt) {
	// Single call RHS: tuple or single-value sources.
	if len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			allSimple := true
			for _, l := range n.Lhs {
				if _, ok := ast.Unparen(l).(*ast.Ident); !ok {
					allSimple = false
				}
			}
			if allSimple {
				a.assignFromCall(n.Lhs, call, n.Pos())
				return
			}
			// Compound LHS (field/index): the results are stored away.
			a.callEffects(call)
			return
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		for _, r := range n.Rhs {
			a.genericScan(r)
		}
		return
	}
	for i := range n.Lhs {
		lhs, rhs := ast.Unparen(n.Lhs[i]), ast.Unparen(n.Rhs[i])
		lv := a.localVar(lhs)
		_, lhsIsIdent := lhs.(*ast.Ident)
		switch {
		case lhsIsIdent && lv != nil:
			a.invalidateCond(lv)
			if rv, ok := a.tracked(rhs); ok {
				// Move: the reference changes hands.
				st := a.curPost[rv]
				if st2, ok := a.curPost[lv]; ok && st2.mayOwn() {
					a.diag(n.Pos(), "overwriting %s while it may still own a reference (acquired at %s)",
						lv.Name(), a.pass.Fset.Position(a.srcPos[lv]))
				}
				a.curPost[lv] = st
				a.srcPos[lv] = a.srcPos[rv]
				a.consume(rv)
				continue
			}
			if call, ok := rhs.(*ast.CallExpr); ok {
				a.assignFromCall([]ast.Expr{lhs}, call, n.Pos())
				continue
			}
			a.kill(lv, n.Pos())
			a.genericScan(rhs)
		default:
			// Store into a field, slice, map, or dereference.
			a.consumeExpr(rhs)
		}
	}
}

func (a *funcAnalysis) deferStmt(call *ast.CallExpr) {
	if v, ok := a.bufMethodCall(call, "Release"); ok {
		// Early-debit: the deferred release runs on every exit.
		a.release(v, call.Pos())
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		a.closureCapture(lit)
		return
	}
	a.callEffects(call)
}

func (a *funcAnalysis) escapeAll(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := a.tracked(id); ok {
				a.escape(v)
			}
		}
		return true
	})
}

func (a *funcAnalysis) returnStmt(n *ast.ReturnStmt) {
	for _, r := range n.Results {
		a.consumeExpr(r)
	}
	a.checkLeaks(n.Pos())
}

func (a *funcAnalysis) checkLeaks(pos token.Pos) {
	for v, st := range a.curPost {
		if st.mayOwn() {
			qualifier := ""
			if st.bits&(bitUnowned|bitReleased) != 0 || st.hasCond() {
				qualifier = "on some paths "
			}
			a.diag(pos, "%s may still own a buffer reference %shere (acquired at %s): release, store, or return it on every path",
				v.Name(), qualifier, a.pass.Fset.Position(a.srcPos[v]))
		}
	}
}

// transfer applies one CFG node to curPost.
func (a *funcAnalysis) transfer(node ast.Node) {
	switch n := node.(type) {
	case *ast.AssignStmt:
		a.assign(n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				if len(vs.Values) == 1 {
					if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, nm := range vs.Names {
							lhs[i] = nm
						}
						a.assignFromCall(lhs, call, n.Pos())
						continue
					}
				}
				for _, val := range vs.Values {
					a.genericScan(val)
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if v, ok := a.bufMethodCall(call, "Retain"); ok {
				a.retainBare(v, call.Pos())
				return
			}
			a.callEffects(call)
			return
		}
		a.genericScan(n.X)
	case *ast.DeferStmt:
		a.deferStmt(n.Call)
	case *ast.GoStmt:
		a.escapeAll(n)
	case *ast.SendStmt:
		a.consumeExpr(n.Value)
		a.genericScan(n.Chan)
	case *ast.ReturnStmt:
		a.returnStmt(n)
	case *ast.RangeStmt:
		a.genericScan(n.X)
	default:
		a.genericScan(node)
	}
}

// refine applies edge facts to conditional states.
func refine(s state, facts []cfg.Fact, a *funcAnalysis) {
	for _, f := range facts {
		applyFact(s, f.Cond, f.Negated, a)
	}
}

// applyFact decomposes a branch condition into nil-ness / truth facts
// about cond vars and resolves conditional ownership.
func applyFact(s state, cond ast.Expr, negated bool, a *funcAnalysis) {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			applyFact(s, c.X, !negated, a)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if !negated {
				applyFact(s, c.X, false, a)
				applyFact(s, c.Y, false, a)
			}
		case token.LOR:
			if negated {
				applyFact(s, c.X, true, a)
				applyFact(s, c.Y, true, a)
			}
		case token.EQL, token.NEQ:
			isNil := func(e ast.Expr) bool {
				id, ok := ast.Unparen(e).(*ast.Ident)
				return ok && id.Name == "nil"
			}
			var operand ast.Expr
			var cmpNil bool
			switch {
			case isNil(c.Y):
				operand, cmpNil = c.X, true
			case isNil(c.X):
				operand, cmpNil = c.Y, true
			default:
				// err == SomeNonNilError: truth implies err != nil.
				operand, cmpNil = c.X, false
			}
			v := a.localVar(operand)
			if v == nil {
				return
			}
			// Determine whether v is nil on this edge, if decidable.
			eq := c.Op == token.EQL
			if negated {
				eq = !eq
			}
			switch {
			case cmpNil && eq: // v == nil holds
				resolveCond(s, v, false)
			case cmpNil && !eq: // v != nil holds
				resolveCond(s, v, true)
			case !cmpNil && eq: // v == X (non-nil) holds ⇒ v non-nil
				resolveCond(s, v, true)
			}
		}
	case *ast.Ident:
		// Bare bool condition: ok / !ok.
		v := a.localVar(c)
		if v == nil {
			return
		}
		resolveBool(s, v, !negated)
	}
}

// resolveCond fixes vars conditioned on error var v: nonNil=true means
// the error is non-nil (buffer not owned).
func resolveCond(s state, errVar *types.Var, nonNil bool) {
	for k, st := range s {
		if st.cond != errVar || st.condOk {
			continue
		}
		st.cond = nil
		if nonNil {
			st.bits |= bitUnowned
		} else {
			st.bits |= bitOwned
		}
		s[k] = st
	}
}

// resolveBool fixes vars conditioned on a comma-ok var.
func resolveBool(s state, okVar *types.Var, truth bool) {
	for k, st := range s {
		if st.cond != okVar || !st.condOk {
			continue
		}
		st.cond, st.condOk = nil, false // a condOk left without its cond makes joins flip-flop forever
		if truth {
			st.bits |= bitOwned
		} else {
			st.bits |= bitUnowned
		}
		s[k] = st
	}
}

func stateEq(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if ov, ok := b[k]; !ok || !ov.eq(v) {
			return false
		}
	}
	return true
}

func (a *funcAnalysis) checkFunc(body *ast.BlockStmt) {
	g := cfg.New(body)
	in := make(map[*cfg.Block]state)
	in[g.Entry] = state{}
	work := []*cfg.Block{g.Entry}
	onWork := map[*cfg.Block]bool{g.Entry: true}

	runBlock := func(blk *cfg.Block, report bool) state {
		a.report = report
		a.curPost = in[blk].clone()
		for _, node := range blk.Nodes {
			a.transfer(node)
		}
		// Fall-off-the-end exits.
		if report {
			for _, e := range blk.Succs {
				if e.To != g.Exit {
					continue
				}
				last := ast.Node(nil)
				if len(blk.Nodes) > 0 {
					last = blk.Nodes[len(blk.Nodes)-1]
				}
				if _, isRet := last.(*ast.ReturnStmt); !isRet {
					a.checkLeaks(body.End())
				}
			}
		}
		return a.curPost
	}

	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		onWork[blk] = false
		out := runBlock(blk, false)
		for _, e := range blk.Succs {
			next := out.clone()
			refine(next, e.Facts, a)
			dst, ok := in[e.To]
			if !ok {
				in[e.To] = next
				dst = next
				if !onWork[e.To] {
					onWork[e.To] = true
					work = append(work, e.To)
				}
				continue
			}
			before := dst.clone()
			if dst.join(next) && !stateEq(before, dst) && !onWork[e.To] {
				onWork[e.To] = true
				work = append(work, e.To)
			}
		}
	}

	// Report pass over converged states.
	for _, blk := range g.Reachable() {
		if _, ok := in[blk]; !ok {
			continue
		}
		runBlock(blk, true)
	}
}

func run(pass *analysis.Pass) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			a := &funcAnalysis{
				pass:   pass,
				pkg:    pkg,
				diags:  &diags,
				srcPos: make(map[*types.Var]token.Pos),
				seen:   make(map[string]bool),
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						a.checkFunc(n.Body)
					}
				case *ast.FuncLit:
					a.checkFunc(n.Body)
				}
				return true
			})
		}
	}
	return diags
}
