package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
	"sync"
)

// AnalyzerLockOrder checks the module's mutex discipline across the
// concurrent layers (internal/campaign, internal/faultinject, the metrics
// sampler, …) five ways, using the interprocedural lock summaries from
// summary.go:
//
//   - Lock-order cycles: every (held, acquired) pair observed anywhere in
//     the module — including acquisitions made transitively through
//     helper calls and interface method sets — forms a module-wide
//     acquisition graph; a cycle means two goroutines can deadlock by
//     taking the same locks in opposite orders. Reported once per cycle
//     from the Finish phase.
//   - Double acquisition: taking a mutex class on a path where the
//     dataflow says it is already held (self-deadlock for sync.Mutex).
//   - Callee re-acquisition: calling a function whose summary says it may
//     (transitively) acquire a class that is provably held at the call
//     site — the deadlock the intra-procedural pass cannot see.
//   - Goroutine spawns: a `go func` literal starts with an EMPTY lock
//     set, whatever the spawner holds, so guarded-field accesses inside a
//     spawned literal are checked against a provably-unlocked entry state
//     instead of being silently skipped. And when a class is provably
//     held at the `go` statement while the spawned function's summary
//     acquires that same class, the spawn is flagged: the goroutine
//     blocks on the spawner's lock, which is a latent deadlock if the
//     spawner ever waits on the goroutine before releasing.
//   - Guard violations: a field that is written under a struct's mutex
//     somewhere is treated as guarded by it; any access to that field in
//     another method of the same struct, on a path where the dataflow
//     proves the guard is NOT held, is reported. Methods whose name ends
//     in "Locked" are assumed to be called with every receiver mutex held.
//
// The lock-state lattice per mutex class is {No, Yes, Maybe}; joins of
// disagreeing paths produce Maybe, and only provable states (Yes for
// ordering/double-acquire/re-acquisition, No for guard violations) are
// acted on, so conditional locking never produces findings. `defer
// mu.Unlock()` keeps the class held through the function, matching its
// runtime semantics.
var AnalyzerLockOrder = &Analyzer{
	Name:   "lockorder",
	Doc:    "detect lock-order cycles, double/callee re-acquisition, locks held across goroutine spawns, and guarded fields accessed where the guard is provably not held",
	Run:    runLockOrder,
	Finish: finishLockOrder,
}

const (
	lsYes   uint8 = 1
	lsMaybe uint8 = 2
)

// lockFact is the dataflow fact: the state of every interesting mutex
// class at a program point. Absent classes are No when the entry state is
// known, and Maybe when it is not (function literals invoked on the
// caller's goroutine, whose lock state is invisible).
type lockFact struct {
	reached bool
	unknown bool
	m       map[string]uint8
}

func (f lockFact) state(class string) uint8 {
	if s, ok := f.m[class]; ok {
		return s
	}
	if f.unknown {
		return lsMaybe
	}
	return 0
}

// heldYes returns the classes provably held, sorted.
func (f lockFact) heldYes() []string {
	var held []string
	for c := range f.m {
		held = append(held, c)
	}
	sort.Strings(held)
	out := held[:0]
	for _, c := range held {
		if f.m[c] == lsYes {
			out = append(out, c)
		}
	}
	return out
}

func joinLockFacts(a, b lockFact) lockFact {
	if !a.reached {
		return b
	}
	if !b.reached {
		return a
	}
	out := lockFact{reached: true, unknown: a.unknown || b.unknown, m: make(map[string]uint8)}
	keys := make([]string, 0, len(a.m)+len(b.m))
	for c := range a.m {
		keys = append(keys, c)
	}
	for c := range b.m {
		keys = append(keys, c)
	}
	sort.Strings(keys)
	for i, c := range keys {
		if i > 0 && keys[i-1] == c {
			continue
		}
		sa, inA := a.m[c]
		sb, inB := b.m[c]
		if inA && inB && sa == sb {
			out.m[c] = sa
		} else {
			out.m[c] = lsMaybe
		}
	}
	return out
}

func equalLockFacts(a, b lockFact) bool {
	return a.reached == b.reached && a.unknown == b.unknown && maps.Equal(a.m, b.m)
}

// lockEdge is one observed acquisition order: to was acquired while from
// was held.
type lockEdge struct {
	from, to string
}

// lockAccumulator collects acquisition-order edges from the concurrent
// per-package passes for the Finish phase's cycle detection.
type lockAccumulator struct {
	mu    sync.Mutex
	edges map[lockEdge]token.Position
}

// record notes an edge, keeping the earliest observation site so reports
// are deterministic regardless of worker scheduling.
func (a *lockAccumulator) record(from, to string, pos token.Position) {
	if from == to {
		return // double acquisition is its own finding, not a graph edge
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.edges == nil {
		a.edges = make(map[lockEdge]token.Position)
	}
	e := lockEdge{from: from, to: to}
	old, ok := a.edges[e]
	if !ok || positionLess(pos, old) {
		a.edges[e] = pos
	}
}

func positionLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func runLockOrder(p *Pass) {
	rel := p.Pkg.Rel()
	if !hasPathPrefix(rel, "internal") && !hasPathPrefix(rel, "sim") {
		return
	}
	facts := p.runner.lockModel(p.Mod)
	g := facts.g
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := receiverStruct(p.Pkg, fd)
			checkLockBody(p, facts, fd.Body, methodEntryClasses(p.Pkg, fd), recv, false)
			checkNestedLits(p, facts, g, fd.Body, recv)
		}
	}
}

// checkNestedLits analyzes every function literal under body as its own
// function, recursively. A literal whose every use is a `go` spawn starts
// on a fresh goroutine with an empty lock set (entry provably unlocked);
// any other literal runs with its caller's invisible lock state (Maybe).
func checkNestedLits(p *Pass, facts *lockFacts, g *callGraph, body *ast.BlockStmt, recv *types.Named) {
	ast.Inspect(body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		spawned := litAlwaysSpawned(g, fl)
		checkLockBody(p, facts, fl.Body, nil, recv, !spawned)
		checkNestedLits(p, facts, g, fl.Body, recv)
		return false
	})
}

// litAlwaysSpawned reports whether every call-graph edge into the literal
// is a goroutine spawn (so its entry lock state is provably empty).
func litAlwaysSpawned(g *callGraph, fl *ast.FuncLit) bool {
	n := g.litNode(fl)
	if n == nil || len(n.in) == 0 {
		return false
	}
	for _, e := range n.in {
		if e.kind != edgeSpawn {
			return false
		}
	}
	return true
}

// checkLockBody solves the lock-state dataflow over one function body and
// reports double acquisitions, callee re-acquisitions, spawn hazards, and
// guard violations, recording acquisition edges into the module
// accumulator.
func checkLockBody(p *Pass, facts *lockFacts, body *ast.BlockStmt, entryHeld []string, recv *types.Named, unknownEntry bool) {
	g := buildCFG(body)
	if g == nil {
		return // unstructured control flow: stay silent rather than guess
	}
	d := dataflow[lockFact]{
		Bottom: func() lockFact { return lockFact{} },
		Entry: func() lockFact {
			f := lockFact{reached: true, unknown: unknownEntry, m: make(map[string]uint8)}
			for _, c := range entryHeld {
				f.m[c] = lsYes
			}
			return f
		},
		Join:     joinLockFacts,
		Equal:    equalLockFacts,
		Transfer: func(n ast.Node, f lockFact) lockFact { return lockTransfer(p.Pkg, n, f) },
	}
	in := d.forward(g)
	for _, b := range g.blocks {
		f := in[b]
		for _, n := range b.nodes {
			scanLockNode(p, facts, recv, n, f)
			f = lockTransfer(p.Pkg, n, f)
		}
	}
}

// lockTransfer applies one node's effect on the lock state: Lock/RLock
// statements set Yes, Unlock/RUnlock statements clear, deferred unlocks
// hold to function exit and are no-ops.
func lockTransfer(pkg *Package, n ast.Node, f lockFact) lockFact {
	stmt, ok := n.(*ast.ExprStmt)
	if !ok {
		return f
	}
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok {
		return f
	}
	class, op := lockOp(pkg, call)
	if class == "" {
		return f
	}
	out := lockFact{reached: f.reached, unknown: f.unknown, m: maps.Clone(f.m)}
	if out.m == nil {
		out.m = make(map[string]uint8)
	}
	switch op {
	case lockAcquire:
		out.m[class] = lsYes
	case lockRelease:
		delete(out.m, class)
	}
	return out
}

// scanLockNode inspects one CFG node under fact f: records acquisition
// edges (direct and through callee summaries), reports double and callee
// re-acquisitions, checks goroutine spawns, and reports guarded-field
// accesses with the guard provably not held. Function literals are
// skipped — they are analyzed as their own functions.
func scanLockNode(p *Pass, facts *lockFacts, recv *types.Named, n ast.Node, f lockFact) {
	if !f.reached {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			scanGoStmt(p, facts, m, f)
			return false
		case *ast.CallExpr:
			class, op := lockOp(p.Pkg, m)
			if op == lockAcquire {
				if f.state(class) == lsYes {
					p.Reportf(m.Pos(), "acquiring %s while it is already held on this path (self-deadlock)", shortClass(p, class))
				}
				for _, held := range f.heldYes() {
					p.runner.lockAcc.record(held, class, p.Mod.Fset.Position(m.Pos()))
				}
				return true
			}
			if op == lockRelease {
				return true
			}
			if acq := facts.acquiresOf(p.Pkg, m); len(acq) > 0 {
				held := f.heldYes()
				for _, to := range acq {
					if f.state(to) == lsYes {
						p.Reportf(m.Pos(), "calling %s, which may (transitively) acquire %s while it is already held on this path (deadlock through callee)",
							callName(m), shortClass(p, to))
					}
					for _, h := range held {
						p.runner.lockAcc.record(h, to, p.Mod.Fset.Position(m.Pos()))
					}
				}
			}
		case *ast.SelectorExpr:
			fv := selectedField(p.Pkg, m)
			if fv == nil || recv == nil {
				return true
			}
			guard := facts.guarded[fv]
			if guard == "" || !strings.HasPrefix(guard, classPrefix(recv)) {
				return true // only check fields of the method's own struct
			}
			if f.state(guard) == 0 {
				p.Reportf(m.Sel.Pos(), "%s.%s is guarded by %s (written under it elsewhere) but accessed where the guard is provably not held",
					recv.Obj().Name(), fv.Name(), shortClass(p, guard))
			}
		}
		return true
	})
}

// scanGoStmt checks one `go` statement under fact f: when a class is
// provably held at the spawn and the spawned function may (transitively)
// acquire that same class, the spawn is a latent deadlock. Spawned
// acquisitions of other classes are NOT ordering edges — the goroutine
// establishes its own acquisition order from an empty lock set.
func scanGoStmt(p *Pass, facts *lockFacts, g *ast.GoStmt, f lockFact) {
	held := f.heldYes()
	if len(held) == 0 {
		return
	}
	var acq []string
	if fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		acq = facts.nodeAcquires(facts.g.litNode(fl))
	} else {
		acq = facts.acquiresOf(p.Pkg, g.Call)
	}
	for _, c := range acq {
		if f.state(c) == lsYes {
			p.Reportf(g.Pos(), "goroutine spawned while %s is held, and the spawned function may (transitively) acquire %s: it blocks until the spawner releases, a latent deadlock if the spawner waits on it; release before spawning",
				shortClass(p, c), shortClass(p, c))
		}
	}
}

// callName renders a short display name for a call site.
func callName(call *ast.CallExpr) string {
	return exprString(call.Fun)
}

const (
	lockAcquire = 1
	lockRelease = 2
)

// lockOp classifies call as a mutex acquisition/release and resolves the
// mutex class it operates on ("" when the receiver is not a trackable
// mutex: locals, map entries, interface values).
func lockOp(pkg *Package, call *ast.CallExpr) (string, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	var op int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = lockAcquire
	case "Unlock", "RUnlock":
		op = lockRelease
	default:
		return "", 0
	}
	class := mutexClass(pkg, sel.X)
	if class == "" {
		return "", 0
	}
	return class, op
}

// mutexClass names the mutex a lock expression denotes: a struct field
// ("pkg/path.Struct.field") or a package-level var ("pkg/path.var").
// Instance identity is deliberately erased — the analysis reasons about
// classes, which is what acquisition ordering is defined over.
func mutexClass(pkg *Package, e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		selInfo, ok := pkg.Info.Selections[e]
		if !ok {
			return ""
		}
		fv, ok := selInfo.Obj().(*types.Var)
		if !ok || !fv.IsField() || !isMutexType(fv.Type()) {
			return ""
		}
		named := derefNamed(selInfo.Recv())
		if named == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return classPrefix(named) + "." + fv.Name()
	case *ast.Ident:
		v, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil || !isMutexType(v.Type()) {
			return ""
		}
		if v.Parent() != v.Pkg().Scope() {
			return "" // local mutex: no class identity
		}
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

// classPrefix is the class-name prefix for a struct's mutex fields and
// guarded fields: "pkg/path.Struct".
func classPrefix(named *types.Named) string {
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// shortClass trims the module path off a class name for messages.
func shortClass(p *Pass, class string) string {
	return strings.TrimPrefix(strings.TrimPrefix(class, p.Mod.Path+"/"), "internal/")
}

func isMutexType(t types.Type) bool {
	named := derefNamed(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// selectedField resolves a selector to the struct field it reads or
// writes, or nil.
func selectedField(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	selInfo, ok := pkg.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return nil
	}
	fv, _ := selInfo.Obj().(*types.Var)
	return fv
}

// receiverStruct returns the named struct type a method declaration
// belongs to, or nil for plain functions.
func receiverStruct(pkg *Package, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return derefNamed(pkg.Info.TypeOf(fd.Recv.List[0].Type))
}

// methodEntryClasses returns the mutex classes assumed held at entry:
// every receiver mutex for methods following the *Locked naming
// convention, nothing otherwise.
func methodEntryClasses(pkg *Package, fd *ast.FuncDecl) []string {
	if !strings.HasSuffix(fd.Name.Name, "Locked") {
		return nil
	}
	named := receiverStruct(pkg, fd)
	if named == nil {
		return nil
	}
	return structMutexClasses(named)
}

// structMutexClasses lists the mutex classes declared as fields of named,
// sorted.
func structMutexClasses(named *types.Named) []string {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); isMutexType(f.Type()) {
			out = append(out, classPrefix(named)+"."+f.Name())
		}
	}
	sort.Strings(out)
	return out
}

// sortedBoolKeys returns the true-keys of a set in sorted order.
func sortedBoolKeys(set map[string]bool) []string {
	var keys []string
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// deriveGuards runs the lock dataflow over one method and records every
// field of recv written while a receiver mutex is provably held.
func deriveGuards(pkg *Package, fd *ast.FuncDecl, recv *types.Named, facts *lockFacts) {
	g := buildCFG(fd.Body)
	if g == nil {
		return
	}
	entryHeld := methodEntryClasses(pkg, fd)
	d := dataflow[lockFact]{
		Bottom: func() lockFact { return lockFact{} },
		Entry: func() lockFact {
			f := lockFact{reached: true, m: make(map[string]uint8)}
			for _, c := range entryHeld {
				f.m[c] = lsYes
			}
			return f
		},
		Join:     joinLockFacts,
		Equal:    equalLockFacts,
		Transfer: func(n ast.Node, f lockFact) lockFact { return lockTransfer(pkg, n, f) },
	}
	in := d.forward(g)
	classes := structMutexClasses(recv)
	prefix := classPrefix(recv)
	for _, b := range g.blocks {
		f := in[b]
		for _, n := range b.nodes {
			if f.reached {
				var heldClass string
				for _, c := range classes {
					if f.state(c) == lsYes {
						heldClass = c
						break
					}
				}
				if heldClass != "" {
					for _, fv := range writtenFields(pkg, n) {
						if fv.Pkg() == nil || isMutexType(fv.Type()) || isSyncInternalType(fv.Type()) {
							continue
						}
						owner := fieldOwner(recv, fv)
						if owner == "" || owner != prefix {
							continue
						}
						if old, ok := facts.guarded[fv]; !ok || heldClass < old {
							facts.guarded[fv] = heldClass
						}
					}
				}
			}
			f = lockTransfer(pkg, n, f)
		}
	}
}

// fieldOwner returns recv's class prefix when fv is a direct field of
// recv's underlying struct, else "".
func fieldOwner(recv *types.Named, fv *types.Var) string {
	st, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == fv {
			return classPrefix(recv)
		}
	}
	return ""
}

// writtenFields returns the struct fields node writes: assignment
// left-hand sides and inc/dec operands that are field selectors.
// Function literals are skipped.
func writtenFields(pkg *Package, n ast.Node) []*types.Var {
	var out []*types.Var
	addSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if fv := selectedField(pkg, sel); fv != nil {
				out = append(out, fv)
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				addSel(lhs)
				// Writes through an index also dirty the field: x.f[i] = v.
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					addSel(idx.X)
				}
			}
		case *ast.IncDecStmt:
			addSel(m.X)
		}
		return true
	})
	return out
}

// isSyncInternalType excludes fields whose own type provides its
// synchronization (atomics, WaitGroup, Once, …) from guard inference.
func isSyncInternalType(t types.Type) bool {
	named := derefNamed(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// finishLockOrder runs after every package's pass: it assembles the
// module-wide acquisition graph and reports each cycle once.
func finishLockOrder(p *FinishPass) {
	acc := &p.runner.lockAcc
	acc.mu.Lock()
	edges := make([]lockEdge, 0, len(acc.edges))
	for e := range acc.edges {
		edges = append(edges, e)
	}
	positions := maps.Clone(acc.edges)
	acc.mu.Unlock()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	adj := make(map[string][]string)
	var nodes []string
	seen := make(map[string]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		for _, n := range []string{e.from, e.to} {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Strings(nodes)

	const (
		colorNew = iota
		colorActive
		colorDone
	)
	color := make(map[string]int)
	var stack []string
	reported := make(map[string]bool)

	var visit func(n string)
	visit = func(n string) {
		color[n] = colorActive
		stack = append(stack, n)
		for _, succ := range adj[n] {
			switch color[succ] {
			case colorActive:
				// Extract the cycle from the DFS stack.
				i := len(stack) - 1
				for i >= 0 && stack[i] != succ {
					i--
				}
				cycle := append([]string(nil), stack[i:]...)
				reportCycle(p, positions, cycle, reported)
			case colorNew:
				visit(succ)
			case colorDone:
				// Fully explored: nothing new on this path.
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = colorDone
	}
	for _, n := range nodes {
		if color[n] == colorNew {
			visit(n)
		}
	}
}

// reportCycle canonicalizes (rotate so the smallest class leads), dedupes,
// and reports one lock-order cycle.
func reportCycle(p *FinishPass, positions map[lockEdge]token.Position, cycle []string, reported map[string]bool) {
	min := 0
	for i, c := range cycle {
		if c < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	key := strings.Join(rotated, " -> ")
	if reported[key] {
		return
	}
	reported[key] = true

	chain := make([]string, 0, len(rotated)+1)
	for _, c := range rotated {
		chain = append(chain, shortFinishClass(p, c))
	}
	chain = append(chain, shortFinishClass(p, rotated[0]))
	pos := positions[lockEdge{from: rotated[0], to: rotated[1%len(rotated)]}]
	p.reportAt(pos, "lock-order cycle: %s — goroutines taking these locks in different orders can deadlock; pick one acquisition order", strings.Join(chain, " -> "))
}

func shortFinishClass(p *FinishPass, class string) string {
	return strings.TrimPrefix(strings.TrimPrefix(class, p.Mod.Path+"/"), "internal/")
}

// reportAt is Reportf for a pre-resolved position (edge positions are
// recorded as token.Position because they cross FileSets' goroutines).
func (p *FinishPass) reportAt(pos token.Position, format string, args ...any) {
	if p.runner.suppressed(p.analyzer.Name, "", pos) {
		return
	}
	p.findings = append(p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}
