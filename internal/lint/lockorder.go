package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrderAllowDirective documents a blocking operation that is proven
// safe to perform while holding a mutex:
//
//	//ioslint:lockorder-allow <Type.mu> <reason>
//
// placed in the doc comment of the function that blocks. The directive
// is checked, not just trusted: if the annotated function never blocks
// while holding that mutex, the stale exemption is itself reported.
const LockOrderAllowDirective = "ioslint:lockorder-allow"

// LockOrder builds a package-wide lock-acquisition graph from
// Lock/RLock call sites on struct-field mutexes (the same vocabulary
// mutexguard's `// guarded by <mu>` annotations name) and reports two
// classes of finding:
//
//   - lock-order cycles: if one code path acquires A then B and another
//     acquires B then A, two goroutines can deadlock. Locks are
//     identified per (struct type, field), so a sharded cache locking
//     many instances of the same mutex in index order is not a cycle.
//   - blocking while locked: a goroutine that performs an HTTP round
//     trip, channel send/receive, select wait, time.Sleep, or
//     WaitGroup.Wait while holding a mutex stalls every contender for
//     as long as the operation takes — the cluster's
//     fetch-hook-inside-a-singleflight-claim pattern is the motivating
//     case. Calls through function-typed values (hooks, callbacks) are
//     treated as blocking unless they take no arguments and return at
//     most one value (parameterless accessors like injected clocks are
//     assumed pure).
//
// The analysis is branch-local and conservative: acquisitions inside a
// branch or loop body do not leak out, same-package callees are
// followed transitively, and goroutine bodies are analyzed as separate
// functions with an empty held set. Deliberate blocking under a lock is
// exempted per function and per mutex with //ioslint:lockorder-allow;
// a deliberate ordering cycle is suppressed at the reported acquisition
// with the standard ignore directive.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "Build the package's lock-acquisition graph and flag ordering cycles " +
		"(potential deadlocks) and blocking operations (HTTP, channel waits, " +
		"hooks) performed while holding a mutex.",
	Run: runLockOrder,
}

// lockUse is one tracked mutex acquisition: key identifies it within a
// function (receiver expression text + field), id across the package
// (struct type + field).
type lockUse struct {
	key lockKey
	id  string
	pos token.Pos
}

// blockEvent is one potentially blocking operation.
type blockEvent struct {
	pos  token.Pos
	what string
}

// lockSummary is what calling a function does to locks, transitively
// through same-package callees: which tracked mutexes it acquires and
// which blocking operations it may perform.
type lockSummary struct {
	acquires []lockUse
	blocks   []blockEvent
}

// lockEvents receives the walker's callbacks. Nil hooks are skipped.
type lockEvents struct {
	// acquire fires before lu joins the held set; via names the callee
	// chain for acquisitions observed through a same-package call.
	acquire func(held []lockUse, lu lockUse, via string)
	// block fires for a potentially blocking operation with locks held.
	block func(held []lockUse, pos token.Pos, what string)
	// goStmt fires for every go statement, locked or not.
	goStmt func(held []lockUse, g *ast.GoStmt)
}

// lockAnalysis drives the shared held-set walk used by lockorder and
// goroleak: a linear, branch-local interpretation of each function body
// tracking which struct-field mutexes are held at each statement.
type lockAnalysis struct {
	pass  *Pass
	index map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*lockSummary
	// localFns resolves variables assigned function literals, so calling
	// a local closure is analyzed by its body instead of treated as an
	// opaque (assumed-blocking) hook.
	localFns map[types.Object][]*ast.FuncLit
	litSums  map[*ast.FuncLit]*lockSummary
	events   lockEvents
}

func newLockAnalysis(pass *Pass) *lockAnalysis {
	return &lockAnalysis{
		pass:     pass,
		index:    packageFuncDecls(pass),
		sums:     make(map[*types.Func]*lockSummary),
		localFns: collectLocalFuncs(pass),
		litSums:  make(map[*ast.FuncLit]*lockSummary),
	}
}

// collectLocalFuncs indexes `v := func(...) {...}` bindings (and var
// declarations) package-wide. A variable bound to several literals maps
// to all of them; the analysis unions their effects.
func collectLocalFuncs(pass *Pass) map[types.Object][]*ast.FuncLit {
	m := make(map[types.Object][]*ast.FuncLit)
	bind := func(name *ast.Ident, rhs ast.Expr) {
		lit, ok := rhs.(*ast.FuncLit)
		if !ok {
			return
		}
		obj := pass.Info.ObjectOf(name)
		if obj != nil {
			m[obj] = append(m[obj], lit)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok && i < len(n.Rhs) {
						bind(id, n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						bind(name, n.Values[i])
					}
				}
			}
			return true
		})
	}
	return m
}

// callKind classifies a call expression for the walker.
type callKind int

const (
	callNone    callKind = iota
	callAcquire          // x.f.Lock() / x.f.RLock() on a tracked mutex
	callRelease          // x.f.Unlock() / x.f.RUnlock()
	callBlock            // known-blocking stdlib call or opaque hook
	callStatic           // same-package function with a visible body
	callLocal            // local variable bound to function literal(s)
)

// classify decides what a call means for the lock walk.
func (la *lockAnalysis) classify(call *ast.CallExpr) (callKind, lockUse, string) {
	if fun, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch fun.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
			if lu, ok := la.trackedMutex(fun); ok {
				if fun.Sel.Name == "Lock" || fun.Sel.Name == "RLock" {
					return callAcquire, lu, ""
				}
				return callRelease, lu, ""
			}
		}
	}
	fn := calledFunc(la.pass, call)
	if fn == nil {
		// Conversions and builtins look like calls; neither blocks.
		tv, ok := la.pass.Info.Types[call.Fun]
		if !ok || tv.IsType() {
			return callNone, lockUse{}, ""
		}
		id, _ := unparenExpr(call.Fun).(*ast.Ident)
		if sel, ok := unparenExpr(call.Fun).(*ast.SelectorExpr); ok {
			id = sel.Sel // unsafe.String and its kin are builtins too
		}
		if id != nil {
			if _, builtin := la.pass.Info.Uses[id].(*types.Builtin); builtin {
				return callNone, lockUse{}, ""
			}
			if obj := la.pass.Info.ObjectOf(id); obj != nil && len(la.localFns[obj]) > 0 {
				return callLocal, lockUse{}, ""
			}
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return callNone, lockUse{}, ""
		}
		// A call through a function value is opaque: assume it can block
		// unless it is a parameterless accessor.
		if sig.Params().Len() > 0 || sig.Results().Len() > 1 {
			return callBlock, lockUse{}, fmt.Sprintf("call through function value %s", types.ExprString(call.Fun))
		}
		return callNone, lockUse{}, ""
	}
	if what := blockingStdlibCall(fn); what != "" {
		return callBlock, lockUse{}, what
	}
	if fn.Pkg() == la.pass.Pkg && la.index[fn] != nil {
		return callStatic, lockUse{}, ""
	}
	return callNone, lockUse{}, ""
}

// trackedMutex resolves x.f in x.f.Lock() to a sync.Mutex/RWMutex field
// of a named struct.
func (la *lockAnalysis) trackedMutex(fun *ast.SelectorExpr) (lockUse, bool) {
	muSel, ok := fun.X.(*ast.SelectorExpr)
	if !ok {
		return lockUse{}, false
	}
	s, ok := la.pass.Info.Selections[muSel]
	if !ok || s.Kind() != types.FieldVal {
		return lockUse{}, false
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !isMutexType(v.Type()) {
		return lockUse{}, false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return lockUse{}, false
	}
	return lockUse{
		key: lockKey{types.ExprString(muSel.X), muSel.Sel.Name},
		id:  named.Obj().Name() + "." + muSel.Sel.Name,
		pos: fun.Pos(),
	}, true
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// blockingStdlibCall names the blocking operation a stdlib call
// performs, or "". sync.Cond.Wait is deliberately absent: it must be
// called with its lock held.
func blockingStdlibCall(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if name == "Wait" && receiverTypeName(fn) == "WaitGroup" {
			return "sync.WaitGroup.Wait"
		}
	case "net/http":
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "HTTP round-trip (http." + name + ")"
		case "Serve", "ListenAndServe", "ListenAndServeTLS", "Shutdown":
			return "HTTP server " + name
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			return "exec.Cmd." + name
		}
	}
	return ""
}

// receiverTypeName returns the name of fn's receiver type, or "".
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// summary computes (memoized, cycle-safe) what calling fn does to locks.
func (la *lockAnalysis) summary(fn *types.Func) *lockSummary {
	if s, ok := la.sums[fn]; ok {
		return s
	}
	s := &lockSummary{}
	la.sums[fn] = s // pre-register so recursion terminates
	fd := la.index[fn]
	if fd == nil || fd.Body == nil {
		return s
	}
	la.scanSummary(fd.Body, s)
	return s
}

// scanSummary collects acquisitions and blocking operations in n,
// skipping function literals and goroutine bodies (they do not run when
// the function runs).
func (la *lockAnalysis) scanSummary(n ast.Node, s *lockSummary) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !hasDefaultClause(n) {
				s.blocks = append(s.blocks, blockEvent{n.Pos(), "select wait"})
			}
			for _, c := range n.Body.List {
				for _, st := range c.(*ast.CommClause).Body {
					la.scanSummary(st, s)
				}
			}
			return false
		case *ast.SendStmt:
			s.blocks = append(s.blocks, blockEvent{n.Arrow, "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.blocks = append(s.blocks, blockEvent{n.OpPos, "channel receive"})
			}
		case *ast.CallExpr:
			switch kind, lu, what := la.classify(n); kind {
			case callAcquire:
				s.acquires = append(s.acquires, lu)
			case callBlock:
				s.blocks = append(s.blocks, blockEvent{n.Pos(), what})
			case callStatic:
				sub := la.summary(calledFunc(la.pass, n))
				s.acquires = append(s.acquires, sub.acquires...)
				s.blocks = append(s.blocks, sub.blocks...)
			case callLocal:
				for _, sub := range la.localSummaries(n) {
					s.acquires = append(s.acquires, sub.acquires...)
					s.blocks = append(s.blocks, sub.blocks...)
				}
			}
		}
		return true
	})
}

func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// walkFunc interprets one function (or function-literal) body from an
// empty held set, firing the registered events.
func (la *lockAnalysis) walkFunc(body *ast.BlockStmt) {
	la.execStmts(body.List, nil)
}

func (la *lockAnalysis) execStmts(list []ast.Stmt, held []lockUse) []lockUse {
	for _, st := range list {
		held = la.execStmt(st, held)
	}
	return held
}

// execStmt interprets one statement, returning the held set after it.
// Branch and loop bodies run on a copy: acquisitions inside them do not
// leak out, which keeps sharded lock-all loops from self-deadlocking in
// the model.
func (la *lockAnalysis) execStmt(st ast.Stmt, held []lockUse) []lockUse {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch kind, lu, _ := la.classify(call); kind {
			case callAcquire:
				la.emitAcquire(held, lu, "")
				return append(held[:len(held):len(held)], lu)
			case callRelease:
				return removeLock(held, lu.key)
			}
		}
		la.scanExpr(st.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end, which
		// is already the walker's model; other deferred calls run at
		// return, usually after the unlocks, so they are not scanned.
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			la.scanExpr(e, held)
		}
		for _, e := range st.Lhs {
			la.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						la.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.GoStmt:
		if la.events.goStmt != nil {
			la.events.goStmt(held, st)
		}
		for _, a := range st.Call.Args {
			la.scanExpr(a, held)
		}
	case *ast.SendStmt:
		la.emitBlock(held, st.Arrow, "channel send")
		la.scanExpr(st.Chan, held)
		la.scanExpr(st.Value, held)
	case *ast.IncDecStmt:
		la.scanExpr(st.X, held)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			la.scanExpr(e, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			held = la.execStmt(st.Init, held)
		}
		la.scanExpr(st.Cond, held)
		la.execStmts(st.Body.List, cloneLocks(held))
		if st.Else != nil {
			la.execStmt(st.Else, cloneLocks(held))
		}
	case *ast.BlockStmt:
		return la.execStmts(st.List, held)
	case *ast.ForStmt:
		inner := cloneLocks(held)
		if st.Init != nil {
			inner = la.execStmt(st.Init, inner)
		}
		if st.Cond != nil {
			la.scanExpr(st.Cond, inner)
		}
		la.execStmts(st.Body.List, inner)
	case *ast.RangeStmt:
		la.scanExpr(st.X, held)
		la.execStmts(st.Body.List, cloneLocks(held))
	case *ast.SelectStmt:
		if !hasDefaultClause(st) {
			la.emitBlock(held, st.Select, "select wait")
		}
		for _, c := range st.Body.List {
			la.execStmts(c.(*ast.CommClause).Body, cloneLocks(held))
		}
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = la.execStmt(st.Init, held)
		}
		if st.Tag != nil {
			la.scanExpr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			la.execStmts(c.(*ast.CaseClause).Body, cloneLocks(held))
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			la.execStmts(c.(*ast.CaseClause).Body, cloneLocks(held))
		}
	case *ast.LabeledStmt:
		return la.execStmt(st.Stmt, held)
	}
	return held
}

// scanExpr fires events for blocking operations and same-package calls
// inside an expression. Function literals are skipped: their bodies are
// walked as separate functions.
func (la *lockAnalysis) scanExpr(e ast.Expr, held []lockUse) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				la.emitBlock(held, n.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			switch kind, _, what := la.classify(n); kind {
			case callBlock:
				la.emitBlock(held, n.Pos(), what)
			case callStatic:
				la.expandCall(held, n)
			case callLocal:
				la.expandLocal(held, n)
			}
		}
		return true
	})
}

// expandCall applies a same-package callee's lock summary at the call
// site: its acquisitions become ordering edges from every held lock,
// its blocking operations become blocking events here.
func (la *lockAnalysis) expandCall(held []lockUse, call *ast.CallExpr) {
	if len(held) == 0 {
		return
	}
	fn := calledFunc(la.pass, call)
	sum := la.summary(fn)
	for _, a := range sum.acquires {
		la.emitAcquire(held, lockUse{key: a.key, id: a.id, pos: call.Pos()}, fn.Name())
	}
	for _, b := range sum.blocks {
		la.emitBlock(held, call.Pos(), b.what+" (inside "+fn.Name()+")")
	}
}

// localSummaries returns the lock summaries of every function literal a
// local call target may be bound to.
func (la *lockAnalysis) localSummaries(call *ast.CallExpr) []*lockSummary {
	id, ok := unparenExpr(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := la.pass.Info.ObjectOf(id)
	var out []*lockSummary
	for _, lit := range la.localFns[obj] {
		s, ok := la.litSums[lit]
		if !ok {
			s = &lockSummary{}
			la.litSums[lit] = s // pre-register so recursion terminates
			la.scanSummary(lit.Body, s)
		}
		out = append(out, s)
	}
	return out
}

// expandLocal applies a local closure's summaries at the call site.
func (la *lockAnalysis) expandLocal(held []lockUse, call *ast.CallExpr) {
	if len(held) == 0 {
		return
	}
	name := types.ExprString(call.Fun)
	for _, sum := range la.localSummaries(call) {
		for _, a := range sum.acquires {
			la.emitAcquire(held, lockUse{key: a.key, id: a.id, pos: call.Pos()}, name)
		}
		for _, b := range sum.blocks {
			la.emitBlock(held, call.Pos(), b.what+" (inside local func "+name+")")
		}
	}
}

func (la *lockAnalysis) emitAcquire(held []lockUse, lu lockUse, via string) {
	if la.events.acquire != nil {
		la.events.acquire(held, lu, via)
	}
}

func (la *lockAnalysis) emitBlock(held []lockUse, pos token.Pos, what string) {
	if len(held) == 0 || la.events.block == nil {
		return
	}
	la.events.block(held, pos, what)
}

func cloneLocks(held []lockUse) []lockUse {
	return append([]lockUse(nil), held...)
}

func removeLock(held []lockUse, key lockKey) []lockUse {
	out := held[:0:0]
	for _, h := range held {
		if h.key != key {
			out = append(out, h)
		}
	}
	return out
}

// lockAllow is one parsed //ioslint:lockorder-allow directive.
type lockAllow struct {
	reason string
	pos    token.Pos
	used   bool
}

// lockEdge is one observed ordering: from held while acquiring to.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string
}

func runLockOrder(pass *Pass) error {
	la := newLockAnalysis(pass)
	var edges []lockEdge
	edgeSeen := make(map[[2]string]bool)
	blockSeen := make(map[token.Pos]map[string]bool)

	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		allowsByDecl := make(map[*ast.FuncDecl]map[string]*lockAllow)
		walkFuncs(f, func(n ast.Node, stack funcStack) {
			var body *ast.BlockStmt
			var owner *ast.FuncDecl
			switch n := n.(type) {
			case *ast.FuncDecl:
				body, owner = n.Body, n
			case *ast.FuncLit:
				body = n.Body
				if len(stack) > 0 {
					owner, _ = stack[0].(*ast.FuncDecl)
				}
			default:
				return
			}
			if body == nil {
				return
			}
			allows := allowsByDecl[owner]
			if allows == nil && owner != nil {
				allows = parseLockAllows(pass, owner)
				allowsByDecl[owner] = allows
			}
			la.events = lockEvents{
				acquire: func(held []lockUse, lu lockUse, via string) {
					for _, h := range held {
						if h.id == lu.id {
							continue // same lock class: sharded instances order by convention
						}
						k := [2]string{h.id, lu.id}
						if edgeSeen[k] {
							continue
						}
						edgeSeen[k] = true
						edges = append(edges, lockEdge{h.id, lu.id, lu.pos, via})
					}
				},
				block: func(held []lockUse, pos token.Pos, what string) {
					for _, h := range held {
						if a, ok := allows[h.id]; ok {
							a.used = true
							continue
						}
						if blockSeen[pos] == nil {
							blockSeen[pos] = make(map[string]bool)
						}
						if blockSeen[pos][h.id] {
							continue
						}
						blockSeen[pos][h.id] = true
						pass.Reportf(pos, "%s while holding %s (locked at %s): a blocked holder stalls every contender — hoist the operation out of the critical section, or document a proven-safe case with //ioslint:lockorder-allow %s <reason> on the function",
							what, h.id, relPosition(pass, h.pos), h.id)
					}
				},
			}
			la.walkFunc(body)
		})
		for _, allows := range allowsByDecl {
			for id, a := range allows {
				if !a.used {
					pass.Reportf(a.pos, "lockorder-allow for %q exempts nothing: the function never blocks while holding it — remove the stale directive", id)
				}
			}
		}
	}

	reportLockCycles(pass, edges)
	return nil
}

// parseLockAllows extracts the //ioslint:lockorder-allow directives from
// a function's doc comment.
func parseLockAllows(pass *Pass, fd *ast.FuncDecl) map[string]*lockAllow {
	allows := make(map[string]*lockAllow)
	if fd.Doc == nil {
		return allows
	}
	for _, c := range fd.Doc.List {
		arg, ok := cutDirective(c.Text, LockOrderAllowDirective)
		if !ok {
			continue
		}
		id, reason, _ := strings.Cut(arg, " ")
		if id == "" || strings.TrimSpace(reason) == "" {
			pass.Reportf(c.Pos(), "malformed lockorder-allow: want //ioslint:lockorder-allow <Type.mu> <reason>")
			continue
		}
		allows[id] = &lockAllow{reason: strings.TrimSpace(reason), pos: c.Pos()}
	}
	return allows
}

// reportLockCycles finds strongly connected components of the ordering
// graph and reports each once, at its earliest edge.
func reportLockCycles(pass *Pass, edges []lockEdge) {
	adj := make(map[string][]string)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	comp := sccs(adj)
	for _, scc := range comp {
		if len(scc) < 2 {
			continue
		}
		in := make(map[string]bool, len(scc))
		for _, n := range scc {
			in[n] = true
		}
		var cyc []lockEdge
		for _, e := range edges {
			if in[e.from] && in[e.to] {
				cyc = append(cyc, e)
			}
		}
		sort.Slice(cyc, func(i, j int) bool { return cyc[i].pos < cyc[j].pos })
		parts := make([]string, len(cyc))
		for i, e := range cyc {
			via := ""
			if e.via != "" {
				via = ", via " + e.via
			}
			parts[i] = fmt.Sprintf("%s → %s (%s%s)", e.from, e.to, relPosition(pass, e.pos), via)
		}
		pass.Reportf(cyc[0].pos, "lock-order cycle: %s — two goroutines interleaving these paths can deadlock; break the cycle, or suppress at this acquisition with //lint:ioslint-ignore lockorder <proof it cannot happen>",
			strings.Join(parts, "; "))
	}
}

// sccs returns the strongly connected components of adj (Tarjan).
func sccs(adj map[string][]string) [][]string {
	var nodes []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range adj {
		add(from)
		for _, to := range tos {
			add(to)
		}
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var out [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := append([]string(nil), adj[v]...)
		sort.Strings(tos)
		for _, w := range tos {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			out = append(out, scc)
		}
	}
	for _, n := range nodes {
		if _, ok := index[n]; !ok {
			strong(n)
		}
	}
	return out
}

// unparenExpr strips parentheses (ast.Unparen needs go1.22; the module
// targets 1.21).
func unparenExpr(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// relPosition renders pos as "file.go:line" for embedding in messages.
func relPosition(pass *Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
