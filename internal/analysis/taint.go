package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the determinism analyzer's interprocedural half: ambient
// nondeterminism tracked as data. Two taint kinds are sourced —
//
//   - wall: time.Now / time.Since / time.Until
//   - rand: any call into math/rand or math/rand/v2
//
// — and propagated interprocedurally: through assignments and expressions
// inside a function, through calls via per-function summaries (taint of a
// callee's returns, parameters that flow to returns), through struct
// fields and package variables written with tainted values anywhere in
// the module, and into closures via their own call-graph nodes.
//
// A finding is reported only where taint reaches a determinism-sensitive
// sink:
//
//   - seed/identity derivation: arguments to xrand.Hash*/xrand.New and to
//     crypto hash inputs (sha256.Sum256 and friends, hash.Hash.Write) —
//     the repo's cache keys, span IDs, and replacement decisions all
//     derive from these;
//   - stats accumulation: assignments into fields of *Stats structs;
//   - sink parameters: a parameter that (transitively) flows into one of
//     the above inside its function makes every call site a sink too —
//     campaign.Key and the span-ID helpers become sinks automatically.
//
// Because only source→sink *flows* are findings, reporting-only wall
// reads (progress ETA, span wall stamps that the canonical export form
// strips) are proven safe and need no directive. Direct calls into
// math/rand are still reported unconditionally: simulator randomness must
// flow through explicitly seeded internal/xrand generators, and there is
// no reporting-only excuse for ambient randomness. JSONL export is
// deliberately NOT a wall sink: exports may carry wall stamps as long as
// their canonical comparison form strips them, which the byte-identity
// tests enforce.
//
// Map iteration order is not a taint kind: determinism.go models it once,
// flow-sensitively, for range loops and the maps.Keys/maps.Values
// iterator form alike.

// taintSet is a bitmask of taint kinds.
type taintSet uint8

const (
	taintWall taintSet = 1 << iota
	taintRand

	taintAll = taintWall | taintRand
)

// describe renders the kinds present in t for messages.
func (t taintSet) describe() string {
	var parts []string
	if t&taintWall != 0 {
		parts = append(parts, "the wall clock (time.Now)")
	}
	if t&taintRand != 0 {
		parts = append(parts, "math/rand")
	}
	return strings.Join(parts, " and ")
}

// taintVal is the dataflow value: the taint kinds an expression may
// carry, plus a bitmask of the enclosing function's parameters it may
// derive from (for building call summaries; parameters beyond 32 are
// untracked).
type taintVal struct {
	k taintSet
	p uint32
}

func (v taintVal) union(o taintVal) taintVal { return taintVal{k: v.k | o.k, p: v.p | o.p} }

// detFacts is the determinism analyzer's module model, built bottom-up
// over the call graph: the taint summaries of this file plus the sorter
// summaries the map-order check consumes (determinism.go).
type detFacts struct {
	g *callGraph
	// ret summarizes a function's returns: taint generated inside it, and
	// which of its parameters flow to a result.
	ret map[*cgNode]taintVal
	// sinkParams marks, per parameter, the taint kinds that parameter
	// feeds into a sink inside the function (directly or transitively).
	sinkParams map[*cgNode][]taintSet
	// fields carries taint through struct fields and package-level vars
	// assigned tainted values anywhere in the module.
	fields map[*types.Var]taintSet
	// sorts marks, per parameter, whether the function definitely sorts
	// that slice argument.
	sorts map[*cgNode][]bool
}

// detModel builds the module's determinism summaries once per Runner.
func (r *Runner) detModel(mod *Module) *detFacts {
	r.detOnce.Do(func() {
		df := &detFacts{
			g:          r.callGraph(mod),
			ret:        make(map[*cgNode]taintVal),
			sinkParams: make(map[*cgNode][]taintSet),
			fields:     make(map[*types.Var]taintSet),
			sorts:      make(map[*cgNode][]bool),
		}
		df.g.fixpoint(df.updateSorts)
		df.g.fixpoint(df.updateNode)
		r.det = df
	})
	return r.det
}

// updateNode recomputes one function's contributions to the global model
// (return summary, sink parameters, field taint) and reports whether
// anything grew.
func (df *detFacts) updateNode(n *cgNode) bool {
	env := df.localEnv(n)
	changed := false

	walkShallow(n.body, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.ReturnStmt:
			for _, e := range m.Results {
				v := df.exprTaint(n, env, e)
				old := df.ret[n]
				merged := old.union(v)
				if merged != old {
					df.ret[n] = merged
					changed = true
				}
			}
		case *ast.AssignStmt:
			if df.recordFieldWrites(n, env, m) {
				changed = true
			}
		case *ast.CompositeLit:
			if df.recordCompositeWrites(n, env, m) {
				changed = true
			}
		case *ast.CallExpr:
			if df.recordSinkParams(n, env, m) {
				changed = true
			}
		}
	})
	return changed
}

// localEnv computes the (flow-insensitive) taint of each local variable
// of n's body under the current global facts, iterating to a fixpoint.
// Parameters are seeded with their param bit.
func (df *detFacts) localEnv(n *cgNode) map[*types.Var]taintVal {
	env := make(map[*types.Var]taintVal)
	params := paramVars(n)
	for i, pv := range params {
		if i < 32 {
			env[pv] = taintVal{p: 1 << i}
		}
	}
	for changed := true; changed; {
		changed = false
		merge := func(v *types.Var, val taintVal) {
			if v == nil {
				return
			}
			old := env[v]
			m := old.union(val)
			if m != old {
				env[v] = m
				changed = true
			}
		}
		walkShallow(n.body, func(m ast.Node) {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						merge(localVar(n.pkg, id), df.exprTaint(n, env, as.Rhs[i]))
					}
				}
			} else if len(as.Rhs) == 1 {
				// Tuple assignment: every LHS gets the call's taint.
				v := df.exprTaint(n, env, as.Rhs[0])
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						merge(localVar(n.pkg, id), v)
					}
				}
			}
		})
	}
	return env
}

// exprTaint evaluates the taint an expression may carry under env.
func (df *detFacts) exprTaint(n *cgNode, env map[*types.Var]taintVal, e ast.Expr) taintVal {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := n.pkg.Info.Uses[e].(*types.Var); ok {
			if val, ok := env[v]; ok {
				return val
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return taintVal{k: df.fields[v]}
			}
		}
		return taintVal{}
	case *ast.SelectorExpr:
		if fv := selectedField(n.pkg, e); fv != nil {
			return df.exprTaint(n, env, e.X).union(taintVal{k: df.fields[fv]})
		}
		if v, ok := n.pkg.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return taintVal{k: df.fields[v]} // pkgname.Var
		}
		return df.exprTaint(n, env, e.X)
	case *ast.CallExpr:
		return df.callTaint(n, env, e)
	case *ast.ParenExpr:
		return df.exprTaint(n, env, e.X)
	case *ast.StarExpr:
		return df.exprTaint(n, env, e.X)
	case *ast.UnaryExpr:
		return df.exprTaint(n, env, e.X)
	case *ast.BinaryExpr:
		return df.exprTaint(n, env, e.X).union(df.exprTaint(n, env, e.Y))
	case *ast.IndexExpr:
		return df.exprTaint(n, env, e.X).union(df.exprTaint(n, env, e.Index))
	case *ast.SliceExpr:
		return df.exprTaint(n, env, e.X)
	case *ast.TypeAssertExpr:
		return df.exprTaint(n, env, e.X)
	case *ast.CompositeLit:
		var out taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out = out.union(df.exprTaint(n, env, kv.Value))
			} else {
				out = out.union(df.exprTaint(n, env, el))
			}
		}
		return out
	}
	return taintVal{}
}

// callTaint evaluates the taint of a call's results: sources, module
// summaries, and conservative propagation through external functions (a
// stdlib call's result is as tainted as its arguments).
func (df *detFacts) callTaint(n *cgNode, env map[*types.Var]taintVal, call *ast.CallExpr) taintVal {
	argUnion := func() taintVal {
		var out taintVal
		for _, a := range call.Args {
			out = out.union(df.exprTaint(n, env, a))
		}
		return out
	}
	if fn := calleeFunc(n.pkg, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				return taintVal{k: taintWall}
			}
		case "math/rand", "math/rand/v2":
			return argUnion().union(taintVal{k: taintRand})
		}
	}
	if callees := df.g.calleesOf(n.pkg, call); len(callees) > 0 {
		var out taintVal
		for _, callee := range callees {
			sum := df.ret[callee]
			out.k |= sum.k
			// A parameter flowing to the callee's result carries the
			// argument's taint back out.
			for i, a := range call.Args {
				if i < 32 && sum.p&(1<<i) != 0 {
					out = out.union(df.exprTaint(n, env, a))
				}
			}
		}
		// Method calls: the receiver's taint also flows (conservatively).
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			out = out.union(df.exprTaint(n, env, sel.X))
		}
		return out
	}
	// External (stdlib) call: results as tainted as the arguments.
	out := argUnion()
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		out = out.union(df.exprTaint(n, env, sel.X))
	}
	return out
}

// paramVars returns the parameter variables of a node in order (declared
// functions and literals alike).
func paramVars(n *cgNode) []*types.Var {
	var ft *ast.FuncType
	switch {
	case n.decl != nil:
		ft = n.decl.Type
	case n.lit != nil:
		ft = n.lit.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if v, ok := n.pkg.Info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// localVar resolves an assignment target to the variable it names (uses
// and short-variable definitions both count).
func localVar(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// recordFieldWrites merges RHS taint into the global field-taint map for
// assignments whose target is a struct field or package-level var.
func (df *detFacts) recordFieldWrites(n *cgNode, env map[*types.Var]taintVal, as *ast.AssignStmt) bool {
	changed := false
	write := func(v *types.Var, val taintVal) {
		if v == nil || val.k == 0 {
			return
		}
		if df.fields[v]|val.k != df.fields[v] {
			df.fields[v] |= val.k
			changed = true
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		val := df.exprTaint(n, env, as.Rhs[i])
		if fv := selectedField(n.pkg, sel); fv != nil {
			write(fv, val)
		} else if v, ok := n.pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			write(v, val)
		}
	}
	return changed
}

// recordCompositeWrites taints struct fields initialized from tainted
// expressions in composite literals (Sink{base: time.Now()}).
func (df *detFacts) recordCompositeWrites(n *cgNode, env map[*types.Var]taintVal, cl *ast.CompositeLit) bool {
	st, ok := compositeStruct(n.pkg, cl)
	if !ok {
		return false
	}
	changed := false
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		val := df.exprTaint(n, env, kv.Value)
		if val.k == 0 {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fv := st.Field(i)
			if fv.Name() == key.Name && df.fields[fv]|val.k != df.fields[fv] {
				df.fields[fv] |= val.k
				changed = true
			}
		}
	}
	return changed
}

// compositeStruct resolves a composite literal to its struct type.
func compositeStruct(pkg *Package, cl *ast.CompositeLit) (*types.Struct, bool) {
	t := pkg.Info.TypeOf(cl)
	if t == nil {
		return nil, false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// recordSinkParams notes which of n's parameters flow into a sink at this
// call site, so the sink propagates to n's callers.
func (df *detFacts) recordSinkParams(n *cgNode, env map[*types.Var]taintVal, call *ast.CallExpr) bool {
	sens := df.callSinkSensitivities(n.pkg, call)
	if sens == nil {
		return false
	}
	changed := false
	nparams := len(paramVars(n))
	for ai, a := range call.Args {
		s := sens(ai)
		if s == 0 {
			continue
		}
		v := df.exprTaint(n, env, a)
		for pi := 0; pi < nparams && pi < 32; pi++ {
			if v.p&(1<<pi) == 0 {
				continue
			}
			sp := df.sinkParams[n]
			if sp == nil {
				sp = make([]taintSet, nparams)
				df.sinkParams[n] = sp
			}
			if sp[pi]|s != sp[pi] {
				sp[pi] |= s
				changed = true
			}
		}
	}
	return changed
}

// callSinkSensitivities classifies a call as a sink: it returns a
// per-argument sensitivity function, or nil when the call is no sink.
// Direct sinks are xrand seed/ID derivations and crypto hash inputs;
// module calls whose callee has sink parameters are transitive sinks.
func (df *detFacts) callSinkSensitivities(pkg *Package, call *ast.CallExpr) func(argIdx int) taintSet {
	if desc, sens := directSink(pkg, call); desc != "" {
		return func(int) taintSet { return sens }
	}
	var perParam []taintSet
	for _, callee := range df.g.calleesOf(pkg, call) {
		for i, s := range df.sinkParams[callee] {
			for len(perParam) <= i {
				perParam = append(perParam, 0)
			}
			perParam[i] |= s
		}
	}
	if perParam == nil {
		return nil
	}
	return func(i int) taintSet {
		if i < len(perParam) {
			return perParam[i]
		}
		return 0
	}
}

// directSink classifies a call as a direct sink, returning a description
// for messages and the taint kinds it is sensitive to.
func directSink(pkg *Package, call *ast.CallExpr) (string, taintSet) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return "", 0
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	switch {
	case isXrandPath(path) && (strings.HasPrefix(name, "Hash") || name == "New"):
		return "the xrand." + name + " seed/ID derivation", taintAll
	case strings.HasPrefix(path, "crypto/") && strings.HasPrefix(name, "Sum"):
		return "a " + fn.Pkg().Name() + "." + name + " hash input", taintAll
	case (path == "hash" || strings.HasPrefix(path, "crypto/") || strings.HasPrefix(path, "hash/")) && name == "Write":
		return "a hash input", taintAll
	}
	return "", 0
}

// isXrandPath reports whether a package path is the module's blessed
// seeded-randomness package (matched by suffix so golden testdata modules
// qualify too).
func isXrandPath(path string) bool {
	return path == "internal/xrand" || strings.HasSuffix(path, "/internal/xrand") || strings.HasSuffix(path, "/xrand")
}

// statsSinkField reports whether an assignment target is a field of a
// *Stats struct (stats accumulation must stay deterministic so serial and
// parallel runs export identical numbers).
func statsSinkField(pkg *Package, lhs ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selInfo, ok := pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return "", false
	}
	named := derefNamed(selInfo.Recv())
	if named == nil || !strings.HasSuffix(named.Obj().Name(), "Stats") {
		return "", false
	}
	return named.Obj().Name() + "." + sel.Sel.Name, true
}

// reportTaintFlows is the reporting half of the taint model: it walks
// every function of the package with its local taint environment and
// reports source→sink flows plus direct math/rand calls.
func reportTaintFlows(p *Pass, df *detFacts) {
	if isXrandPath(p.Pkg.Types.Path()) {
		return // the blessed wrapper is allowed to be about randomness
	}
	for _, n := range df.g.nodes {
		if n.pkg != p.Pkg {
			continue
		}
		env := df.localEnv(n)
		walkShallow(n.body, func(m ast.Node) {
			switch m := m.(type) {
			case *ast.CallExpr:
				reportCallFlows(p, df, n, env, m)
			case *ast.AssignStmt:
				reportStatsFlows(p, df, n, env, m)
			}
		})
	}
}

// reportCallFlows reports tainted arguments reaching sink calls, and
// direct calls into math/rand.
func reportCallFlows(p *Pass, df *detFacts, n *cgNode, env map[*types.Var]taintVal, call *ast.CallExpr) {
	if fn := calleeFunc(p.Pkg, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			p.reportAs("allow", call.Pos(), "call into %s: simulator randomness must flow through explicitly seeded internal/xrand generators", fn.Pkg().Path())
			return
		}
	}
	desc, directSens := directSink(p.Pkg, call)
	var sens func(int) taintSet
	if desc != "" {
		sens = func(int) taintSet { return directSens }
	} else {
		sens = df.callSinkSensitivities(p.Pkg, call)
		if sens == nil {
			return
		}
		desc = callName(call) + ", whose parameter feeds a key/ID/stats derivation"
	}
	for ai, a := range call.Args {
		eff := df.exprTaint(n, env, a).k & sens(ai)
		if eff == 0 {
			continue
		}
		p.reportAs("allow", a.Pos(), "value derived from %s reaches %s: byte-identical replay breaks; derive it from seeds or cycle counts (or annotate //simlint:allow determinism -- <why this cannot affect results>)",
			eff.describe(), desc)
	}
}

// reportStatsFlows reports tainted values assigned into *Stats fields.
func reportStatsFlows(p *Pass, df *detFacts, n *cgNode, env map[*types.Var]taintVal, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		field, ok := statsSinkField(p.Pkg, lhs)
		if !ok {
			continue
		}
		eff := df.exprTaint(n, env, as.Rhs[i]).k
		if eff == 0 {
			continue
		}
		p.reportAs("allow", as.Pos(), "value derived from %s reaches stats accumulation field %s: serial and parallel runs would export different numbers; derive it from seeds or cycle counts (or annotate //simlint:allow determinism -- <why this cannot affect results>)",
			eff.describe(), field)
	}
}
