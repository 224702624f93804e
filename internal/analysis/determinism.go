package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// AnalyzerDeterminism guards the simulator's bit-identical-replay
// contract: the same grid must produce byte-identical exports whether it
// runs serially, on the worker pool, or across processes. It checks two
// things anywhere under internal/, sim/, cmd/, or the module root.
//
// Map-order dependence. Go randomizes map iteration order, so `for … range
// m` over a map, or a maps.Keys/maps.Values iterator, that feeds
// simulation state or user-visible output is a nondeterminism hazard. The
// analysis is flow-sensitive: a collect origin — a loop that only appends
// keys/values to local slices, or `x := slices.Collect(maps.Keys(m))` —
// is allowed when, on every control path, each collected slice is sorted
// before its first order-sensitive use, by a direct sort.*/slices.* call
// or by a module helper that (transitively) sorts its argument.
// Re-collecting into an already-sorted slice restarts the obligation.
// `slices.Sorted(maps.Keys(m))` is sorted from the start. A range that
// binds neither key nor value (`for range m`) executes an identical body
// per element and is order-independent by construction, so it is always
// allowed. Any other map range or maps.Keys/maps.Values use needs
// //simlint:ordered -- <justification>.
//
// Ambient nondeterminism. Wall-clock (time.Now) and math/rand values are
// tracked as taint through calls, fields, and closures, and reported only
// where they reach a key/ID/stats sink; direct math/rand calls are always
// reported (taint.go). These findings take //simlint:allow determinism.
var AnalyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc:  "flag map-order dependence (flow-sensitively) and wall-clock/math/rand flows into key/ID/stats sinks",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	rel := p.Pkg.Rel()
	inScope := hasPathPrefix(rel, "internal") || hasPathPrefix(rel, "sim") ||
		hasPathPrefix(rel, "cmd") || rel == ""
	if !inScope {
		return
	}
	df := p.runner.detModel(p.Mod)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapOrder(p, df, n.Body)
				}
			case *ast.FuncLit:
				checkMapOrder(p, df, n.Body)
			}
			return true
		})
	}
	reportTaintFlows(p, df)
}

// detState is the sorted-fact lattice value for one tracked local slice.
type detState struct {
	st     uint8    // stPending or stSorted
	origin ast.Node // the collect origin: a *ast.RangeStmt or *ast.AssignStmt
}

const (
	stSorted  uint8 = 1 // collected from a map, then sorted: order-independent
	stPending uint8 = 2 // collected from a map, not yet sorted
)

// detFact maps tracked slice variables to their sorted-fact state; a
// variable that is absent is untracked (its content is map-order
// independent).
type detFact map[*types.Var]detState

// checkMapOrder runs the flow-sensitive map-order analysis over one
// function body (nested function literals are analyzed separately and
// skipped here).
func checkMapOrder(p *Pass, df *detFacts, body *ast.BlockStmt) {
	var (
		origins     map[ast.Node][]*types.Var // collect origin -> the slices it fills in map order
		order       []ast.Node                // the origins in source order
		direct      []*ast.RangeStmt          // map ranges that are not pure collect loops
		directIters []*ast.CallExpr           // maps.Keys/maps.Values calls nothing below accounts for
		consumed    map[*ast.CallExpr]bool    // iterator calls an origin, a sort, or a keyless range accounts for
	)
	addOrigin := func(n ast.Node, targets []*types.Var) {
		if origins == nil {
			origins = make(map[ast.Node][]*types.Var)
		}
		origins[n] = targets
		order = append(order, n)
	}
	consume := func(it *ast.CallExpr) {
		if consumed == nil {
			consumed = make(map[*ast.CallExpr]bool)
		}
		consumed[it] = true
	}

	// The walk is preorder, so a range, assignment, or sorting call marks
	// the iterator call it consumes before the walk reaches that call.
	walkSameFunc(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.RangeStmt:
			keyless := isBlankOrNil(n.Key) && isBlankOrNil(n.Value)
			if it := mapIterCall(p.Pkg, n.X); it != nil && keyless {
				consume(it)
			}
			t := p.Pkg.Info.TypeOf(n.X)
			if keyless || t == nil {
				return // a keyless range binds no per-element data: order-independent by construction
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			if targets := collectTargets(p, n); targets != nil {
				addOrigin(n, targets)
			} else {
				direct = append(direct, n)
			}
		case *ast.AssignStmt:
			if v, it := iterCollect(p.Pkg, n); v != nil {
				consume(it)
				addOrigin(n, []*types.Var{v})
			}
		case *ast.CallExpr:
			if isSortingCall(p.Pkg, n) {
				if it := mapIterCall(p.Pkg, n.Args[0]); it != nil {
					consume(it) // slices.Sorted(maps.Keys(m)): sorted from the start
				}
			} else if mapIterCall(p.Pkg, n) != nil && !consumed[n] {
				directIters = append(directIters, n)
			}
		}
	})

	for _, rng := range direct {
		p.reportAs("ordered", rng.Pos(),
			"range over map %s: iteration order is randomized; sort the keys first or annotate //simlint:ordered -- <why order is irrelevant>", exprString(rng.X))
	}
	for _, it := range directIters {
		p.reportAs("ordered", it.Pos(),
			"%s: iteration order is randomized; use slices.Sorted or collect and sort first, or annotate //simlint:ordered -- <why order is irrelevant>", iterString(p.Pkg, it))
	}
	if len(origins) == 0 {
		return
	}

	tracked := make(map[*types.Var]bool)
	for _, origin := range order {
		for _, v := range origins[origin] {
			tracked[v] = true
		}
	}

	g := buildCFG(body)
	if g == nil {
		// Unstructured control flow (goto): fall back to the syntactic
		// whole-function check — a sort call on the target anywhere after
		// the origin.
		for _, origin := range order {
			for _, v := range origins[origin] {
				if !sortedSyntactically(p, df, body, origin, v) {
					p.reportAs("ordered", origin.Pos(),
						"%s: iteration order is randomized; sort the keys first or annotate //simlint:ordered -- <why order is irrelevant>", originString(p.Pkg, origin))
					break
				}
			}
		}
		return
	}

	flow := &detFlow{p: p, df: df, tracked: tracked, origins: origins}
	d := dataflow[detFact]{
		Bottom:   func() detFact { return nil },
		Entry:    func() detFact { return detFact{} },
		Join:     joinDetFacts,
		Equal:    func(a, b detFact) bool { return maps.Equal(a, b) },
		Transfer: flow.transfer,
	}
	in := d.forward(g)

	violated := make(map[ast.Node]bool)
	for _, b := range g.blocks {
		f := in[b]
		for _, n := range b.nodes {
			flow.checkUses(n, f, violated)
			f = flow.transfer(n, f)
		}
	}
	for _, origin := range order {
		if violated[origin] {
			p.reportAs("ordered", origin.Pos(),
				"%s: iteration order is randomized and the collected slice is used on a path where it was not sorted; sort it first or annotate //simlint:ordered -- <why order is irrelevant>", originString(p.Pkg, origin))
		}
	}
}

// mapIterCall returns e as a maps.Keys/maps.Values call, or nil.
func mapIterCall(pkg *Package, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "maps" || (fn.Name() != "Keys" && fn.Name() != "Values") {
		return nil
	}
	return call
}

// iterCollect recognizes the iterator-form collect origin
// `x := slices.Collect(maps.Keys(m))` (or `=`, or maps.Values) into a
// local variable, returning the variable and the iterator call.
func iterCollect(pkg *Package, as *ast.AssignStmt) (*types.Var, *ast.CallExpr) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, nil
	}
	v := localVar(pkg, id)
	if v == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil, nil // package-level state escapes the function's flow
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, nil
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "slices" || fn.Name() != "Collect" {
		return nil, nil
	}
	it := mapIterCall(pkg, call.Args[0])
	if it == nil {
		return nil, nil
	}
	return v, it
}

// iterString renders a maps.Keys/maps.Values call for messages.
func iterString(pkg *Package, it *ast.CallExpr) string {
	return "maps." + calleeFunc(pkg, it).Name() + "(" + exprString(it.Args[0]) + ")"
}

// originString renders a collect origin for messages.
func originString(pkg *Package, origin ast.Node) string {
	if rng, ok := origin.(*ast.RangeStmt); ok {
		return "range over map " + exprString(rng.X)
	}
	_, it := iterCollect(pkg, origin.(*ast.AssignStmt))
	return "slices.Collect(" + iterString(pkg, it) + ")"
}

// joinDetFacts is the lattice join: the union of both maps, taking the
// higher state (pending beats sorted) and the earlier origin on ties.
func joinDetFacts(a, b detFact) detFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := maps.Clone(a)
	vars := sortedFactVars(b)
	for _, v := range vars {
		sb := b[v]
		sa, ok := out[v]
		if !ok || sb.st > sa.st {
			out[v] = sb
			continue
		}
		if sb.st == sa.st && sb.origin != nil && sa.origin != nil && sb.origin.Pos() < sa.origin.Pos() {
			out[v] = sb
		}
	}
	return out
}

// sortedFactVars returns the fact's tracked variables in declaration
// order, so every consumer iterates deterministically.
func sortedFactVars(f detFact) []*types.Var {
	vars := make([]*types.Var, 0, len(f))
	for v := range f {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	return vars
}

// detFlow is the transfer/use-check context of one function's analysis.
type detFlow struct {
	p       *Pass
	df      *detFacts
	tracked map[*types.Var]bool
	origins map[ast.Node][]*types.Var
}

// transfer applies one CFG node to the fact.
func (d *detFlow) transfer(n ast.Node, f detFact) detFact {
	if targets, ok := d.origins[n]; ok {
		f = maps.Clone(f)
		if f == nil {
			f = detFact{}
		}
		for _, v := range targets {
			f[v] = detState{st: stPending, origin: n}
		}
		return f
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			v := localVar(d.p.Pkg, id)
			if v == nil || !d.tracked[v] {
				continue
			}
			if _, have := f[v]; !have {
				continue
			}
			if len(n.Lhs) == len(n.Rhs) && preservesOrderFact(d.p, n.Rhs[i], v) {
				continue // x = append(x, …) / x = x[a:b] keep the current fact
			}
			// Any other assignment replaces the collected value: the
			// obligation is discharged (the map-ordered data is gone).
			f = maps.Clone(f)
			delete(f, v)
		}
		return f

	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if !ok {
			return f
		}
		for _, v := range d.sortTargets(call) {
			if _, have := f[v]; have {
				f = maps.Clone(f)
				st := f[v]
				st.st = stSorted
				f[v] = st
			}
		}
		return f
	}
	return f
}

// preservesOrderFact reports whether assigning rhs to v keeps v's
// sorted-fact meaningful: appending to itself (still the same collected
// prefix) or re-slicing itself (order preserved).
func preservesOrderFact(p *Pass, rhs ast.Expr, v *types.Var) bool {
	switch rhs := rhs.(type) {
	case *ast.CallExpr:
		fn, ok := rhs.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || len(rhs.Args) == 0 {
			return false
		}
		if _, builtin := p.Pkg.Info.Uses[fn].(*types.Builtin); !builtin {
			return false
		}
		id, ok := rhs.Args[0].(*ast.Ident)
		return ok && p.Pkg.Info.Uses[id] == v
	case *ast.SliceExpr:
		id, ok := rhs.X.(*ast.Ident)
		return ok && p.Pkg.Info.Uses[id] == v
	}
	return false
}

// sortTargets resolves a call to the tracked variables it sorts.
func (d *detFlow) sortTargets(call *ast.CallExpr) []*types.Var {
	var out []*types.Var
	for _, i := range d.df.sortedArgs(d.p.Pkg, call) {
		if id, ok := call.Args[i].(*ast.Ident); ok {
			if v, ok := d.p.Pkg.Info.Uses[id].(*types.Var); ok && d.tracked[v] {
				out = append(out, v)
			}
		}
	}
	return out
}

// checkUses records a violation for every tracked-and-pending variable
// the node uses in an order-sensitive position.
func (d *detFlow) checkUses(n ast.Node, f detFact, violated map[ast.Node]bool) {
	if len(f) == 0 {
		return
	}
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Only the range operand executes here; the body has its own
		// blocks and the key/value are definitions, not uses.
		d.scanExpr(n.X, f, violated)
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if v := localVar(d.p.Pkg, id); v != nil && d.tracked[v] && len(n.Lhs) == len(n.Rhs) {
					if d.scanSelfUpdate(n.Rhs[i], v, f, violated) {
						continue
					}
				}
			} else {
				d.scanExpr(lhs, f, violated) // t[i] = x, s.f = x: operand uses
			}
			if len(n.Lhs) == len(n.Rhs) {
				d.scanExpr(n.Rhs[i], f, violated)
			}
		}
		if len(n.Lhs) != len(n.Rhs) {
			for _, rhs := range n.Rhs {
				d.scanExpr(rhs, f, violated)
			}
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && len(d.sortTargets(call)) > 0 {
			return // the sorting call itself (including its closure) is exempt
		}
		d.scanExpr(n.X, f, violated)
	default:
		if nd, ok := n.(ast.Node); ok {
			d.scanNode(nd, f, violated)
		}
	}
}

// scanSelfUpdate handles `t = append(t, …)` / `t = t[a:b]`: the self
// reference is exempt, the remaining operands are scanned. Reports true
// when rhs was such a self-update.
func (d *detFlow) scanSelfUpdate(rhs ast.Expr, v *types.Var, f detFact, violated map[ast.Node]bool) bool {
	if !preservesOrderFact(d.p, rhs, v) {
		return false
	}
	switch rhs := rhs.(type) {
	case *ast.CallExpr:
		for _, arg := range rhs.Args[1:] {
			d.scanExpr(arg, f, violated)
		}
	case *ast.SliceExpr:
		for _, e := range []ast.Expr{rhs.Low, rhs.High, rhs.Max} {
			if e != nil {
				d.scanExpr(e, f, violated)
			}
		}
	}
	return true
}

// scanNode walks a whole statement for order-sensitive uses.
func (d *detFlow) scanNode(n ast.Node, f detFact, violated map[ast.Node]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if isLenCap(d.p, m) || len(d.sortTargets(m)) > 0 {
				return false // len/cap and sorting calls are order-insensitive
			}
		case *ast.Ident:
			d.identUse(m, f, violated)
		}
		return true
	})
}

// scanExpr is scanNode restricted to an expression operand.
func (d *detFlow) scanExpr(e ast.Expr, f detFact, violated map[ast.Node]bool) {
	if e == nil {
		return
	}
	d.scanNode(e, f, violated)
}

// identUse records a violation if id refers to a tracked variable whose
// state is pending.
func (d *detFlow) identUse(id *ast.Ident, f detFact, violated map[ast.Node]bool) {
	v, ok := d.p.Pkg.Info.Uses[id].(*types.Var)
	if !ok || !d.tracked[v] {
		return
	}
	if st, have := f[v]; have && st.st == stPending && st.origin != nil {
		violated[st.origin] = true
	}
}

// isLenCap reports whether call is builtin len(x) or cap(x).
func isLenCap(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || (id.Name != "len" && id.Name != "cap") {
		return false
	}
	_, builtin := p.Pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

// isSortingCall reports whether call invokes a sorting function from
// package sort or slices with the target as its first argument.
func isSortingCall(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable", "Sort":
			return true
		}
	case "slices":
		return strings.HasPrefix(sel.Sel.Name, "Sort")
	}
	return false
}

// calleeFunc resolves a call to the function object it statically
// invokes, or nil.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// updateSorts is the sorter-summary step of the module fixpoint: it marks
// the parameters n definitely sorts — directly via sort.*/slices.*, or
// transitively by forwarding the parameter into another sorter — and
// reports whether a mark was added. This is what lets the map-order check
// accept the sorted-in-helper idiom (`collect; sortRecords(rows)`)
// without a //simlint:ordered directive.
func (df *detFacts) updateSorts(n *cgNode) bool {
	params := paramVars(n)
	changed := false
	walkShallow(n.body, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		for _, i := range df.sortedArgs(n.pkg, call) {
			id, ok := call.Args[i].(*ast.Ident)
			if !ok {
				continue
			}
			v, _ := n.pkg.Info.Uses[id].(*types.Var)
			pi := slices.Index(params, v)
			if pi < 0 {
				continue
			}
			marks := df.sorts[n]
			if marks == nil {
				marks = make([]bool, len(params))
				df.sorts[n] = marks
			}
			if !marks[pi] {
				marks[pi] = true
				changed = true
			}
		}
	})
	return changed
}

// sortedArgs returns the indexes of the arguments a call definitely
// sorts: the first argument of a sort.*/slices.Sort* call, or each
// argument every module callee (the whole interface fan-out) sorts.
func (df *detFacts) sortedArgs(pkg *Package, call *ast.CallExpr) []int {
	if isSortingCall(pkg, call) {
		return []int{0}
	}
	callees := df.g.calleesOf(pkg, call)
	if len(callees) == 0 {
		return nil
	}
	var out []int
	for i := range call.Args {
		all := true
		for _, c := range callees {
			if marks := df.sorts[c]; i >= len(marks) || !marks[i] {
				all = false
				break
			}
		}
		if all {
			out = append(out, i)
		}
	}
	return out
}

// collectTargets returns the local slice variables a range loop purely
// collects into — its body holds only `x = append(x, …)` statements,
// optionally wrapped in else-less `if` filters, plus bare continues —
// or nil if the body does anything else. Targets come back in
// declaration order.
func collectTargets(p *Pass, rng *ast.RangeStmt) []*types.Var {
	set := make(map[*types.Var]bool)
	if !collectInto(p, rng.Body, set) || len(set) == 0 {
		return nil
	}
	out := make([]*types.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

func collectInto(p *Pass, body *ast.BlockStmt, set map[*types.Var]bool) bool {
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			if s.Else != nil || s.Init != nil {
				return false
			}
			if !collectInto(p, s.Body, set) {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE || s.Label != nil {
				return false
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" || len(call.Args) < 2 {
				return false
			}
			first, ok := call.Args[0].(*ast.Ident)
			if !ok || first.Name != lhs.Name {
				return false
			}
			v, ok := p.Pkg.Info.Uses[lhs].(*types.Var)
			if !ok {
				return false
			}
			set[v] = true
		default:
			return false
		}
	}
	return true
}

// sortedSyntactically is the conservative fallback when no CFG is
// available: a sort.*/slices.* call (or sorter-helper call) naming v
// anywhere in the function after the collect origin.
func sortedSyntactically(p *Pass, df *detFacts, body *ast.BlockStmt, origin ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < origin.End() {
			return true
		}
		for _, i := range df.sortedArgs(p.Pkg, call) {
			if id, ok := call.Args[i].(*ast.Ident); ok && p.Pkg.Info.Uses[id] == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// walkSameFunc visits every node of body except nested function
// literals, which are analyzed as their own functions.
func walkSameFunc(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// isBlankOrNil reports whether a range binding is absent or the blank
// identifier.
func isBlankOrNil(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// exprString renders a short source form of simple expressions for
// messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	}
	return "expression"
}

// hasPathPrefix reports whether rel is under the given top-level path
// segment ("internal", "sim", "cmd").
func hasPathPrefix(rel, seg string) bool {
	return rel == seg || strings.HasPrefix(rel, seg+"/")
}
