package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// MutexGuard checks `// guarded by <mu>` field annotations: a field so
// annotated may only be accessed in functions that (somewhere in their
// body) lock that mutex on the same receiver chain, or that declare the
// precondition in their name with a "Locked" suffix. The check is
// intra-procedural and conservative by design — it cannot prove the lock
// is held at the access, only that the function participates in the
// locking discipline at all — which is exactly the class of mistake that
// slips through review: a new method on a sharded cache or the batching
// queue that touches guarded state without taking the lock anywhere.
//
// The annotation activates only when <mu> names a sync.Mutex/RWMutex
// field of the same struct; prose like "guarded by the cache mutex"
// stays commentary. Accesses through a value the function itself builds
// with a composite literal (constructors) are exempt: the object is not
// yet shared.
var MutexGuard = &Analyzer{
	Name: "mutexguard",
	Doc: "Fields annotated `// guarded by <mu>` must only be accessed in " +
		"functions that lock <mu> on the same receiver (or are *Locked " +
		"helpers documenting the precondition).",
	Run: runMutexGuard,
}

// guardedField records one annotation: the struct type, field, and the
// guarding mutex field's name.
type guardedField struct {
	structType *types.Named
	mutexName  string
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)\b`)

func runMutexGuard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		checkGuardedAccesses(pass, f, guards)
	}
	return nil
}

// collectGuards finds active `guarded by <mu>` annotations on struct
// fields declared in this package.
func collectGuards(pass *Pass) map[*types.Var]guardedField {
	guards := make(map[*types.Var]guardedField)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			def, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			named, ok := def.Type().(*types.Named)
			if !ok {
				return true
			}
			tstruct, ok := named.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				mu := guardAnnotation(fld)
				if mu == "" || !isMutexField(tstruct, mu) {
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						guards[v] = guardedField{structType: named, mutexName: mu}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment, or "".
func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// isMutexField reports whether st has a field named mu of a sync mutex
// type.
func isMutexField(st *types.Struct, mu string) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != mu {
			continue
		}
		return isMutexType(f.Type())
	}
	return false
}

// checkGuardedAccesses walks every function in f and verifies guarded
// field accesses against the function's lock evidence.
func checkGuardedAccesses(pass *Pass, f *ast.File, guards map[*types.Var]guardedField) {
	walkFuncs(f, func(n ast.Node, stack funcStack) {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return
		}
		if fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
			return
		}
		locked := lockEvidence(pass, fd.Body)
		// Function literals inherit the declaring function's evidence:
		// deferred unlocks and callback closures run under a variety of
		// disciplines, and splitting their evidence produces more noise
		// than signal at this analyzer's (deliberately coarse) precision.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v := fieldVarOf(pass, sel)
			if v == nil {
				return true
			}
			g, ok := guards[v]
			if !ok {
				return true
			}
			base := types.ExprString(sel.X)
			if locked[lockKey{base, g.mutexName}] {
				return true
			}
			if freshlyConstructed(pass, fd, sel.X) {
				return true
			}
			pass.Reportf(sel.Pos(), "%s.%s is guarded by %q but %s neither locks %s.%s nor is named *Locked (lock the mutex, rename the helper, or annotate a deliberate exception)",
				g.structType.Obj().Name(), v.Name(), g.mutexName, fd.Name.Name, base, g.mutexName)
			return true
		})
	})
}

// lockKey identifies one (receiver chain, mutex field) lock site.
type lockKey struct {
	base, mu string
}

// lockEvidence scans a function body for x.mu.Lock()/RLock() calls
// (direct or deferred) and returns the set of locked (receiver, mutex)
// pairs.
func lockEvidence(pass *Pass, body *ast.BlockStmt) map[lockKey]bool {
	locked := make(map[lockKey]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (fun.Sel.Name != "Lock" && fun.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := fun.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		locked[lockKey{types.ExprString(muSel.X), muSel.Sel.Name}] = true
		return true
	})
	return locked
}

// freshlyConstructed reports whether the root identifier of base is a
// local variable of fd initialized from a composite literal — a value
// this function just built and has not yet shared, which constructors
// may populate lock-free.
func freshlyConstructed(pass *Pass, fd *ast.FuncDecl, base ast.Expr) bool {
	root := rootIdent(base)
	if root == nil {
		return false
	}
	obj := pass.Info.ObjectOf(root)
	if obj == nil || obj.Pos() < fd.Pos() || obj.Pos() > fd.End() {
		return false
	}
	fresh := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || fresh {
			return !fresh
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || pass.Info.ObjectOf(id) != obj || i >= len(as.Rhs) {
				continue
			}
			rhs := as.Rhs[i]
			if un, ok := rhs.(*ast.UnaryExpr); ok {
				rhs = un.X
			}
			if _, ok := rhs.(*ast.CompositeLit); ok {
				fresh = true
			}
		}
		return !fresh
	})
	return fresh
}

// rootIdent returns the leftmost identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
