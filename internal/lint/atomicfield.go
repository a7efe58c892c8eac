package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField mechanizes the Server.inferReqs bug class: once any code
// path accesses a struct field through sync/atomic
// (Add/Load/Store/Swap/CompareAndSwap on its address), every access
// must be atomic — a single plain read or write silently races with the
// atomic writers and the race detector only catches it if a test
// happens to exercise both paths at once. The analyzer collects every
// field whose address reaches a sync/atomic call anywhere in the
// package, then flags every other (non-atomic) read or write of those
// fields. Accesses on a value the function just built from a composite
// literal are exempt (constructors initialize lock-free), as are test
// files. Migrating the field to atomic.Int64 and friends removes the
// hazard by construction — the typed API has no plain accessors.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "Struct fields accessed via sync/atomic anywhere must never be " +
		"read or written non-atomically elsewhere.",
	Run: runAtomicField,
}

func runAtomicField(pass *Pass) error {
	// Pass 1: find fields used atomically and remember the sanctioned
	// &x.f selector nodes inside those calls.
	atomicAt := make(map[*types.Var]string)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !isAtomicOpName(fn.Name()) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := unparenExpr(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				v := fieldVarOf(pass, sel)
				if v == nil {
					continue
				}
				sanctioned[sel] = true
				if _, seen := atomicAt[v]; !seen {
					atomicAt[v] = "atomic." + fn.Name() + " at " + relPosition(pass, call.Pos())
				}
			}
			return true
		})
	}
	if len(atomicAt) == 0 {
		return nil
	}

	// Pass 2: every other access to those fields is a finding.
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		writes := collectWriteTargets(f)
		walkFuncs(f, func(n ast.Node, stack funcStack) {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sanctioned[sel] {
					return true
				}
				v := fieldVarOf(pass, sel)
				if v == nil {
					return true
				}
				op, tracked := atomicAt[v]
				if !tracked {
					return true
				}
				if freshlyConstructed(pass, fd, sel.X) {
					return true
				}
				kind := "read"
				if writes[sel] {
					kind = "written"
				}
				pass.Reportf(sel.Pos(), "field %s.%s is accessed atomically elsewhere (%s) but %s here without sync/atomic: mixed access races — use the atomic API everywhere or migrate the field to the typed atomic.* form",
					ownerTypeName(pass, sel), v.Name(), op, kind)
				return true
			})
		})
	}
	return nil
}

// isAtomicOpName matches the sync/atomic package-level accessors
// (AddInt64, LoadUint32, StorePointer, SwapInt32, CompareAndSwapInt64…).
func isAtomicOpName(name string) bool {
	for _, prefix := range [...]string{"Add", "Load", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// fieldVarOf resolves sel to the declared struct field it selects, or
// nil. A field reached through an instantiated generic type (every
// method of a generic type sees its own instantiation of the receiver)
// resolves to the one field object of the generic declaration.
func fieldVarOf(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return nil
	}
	return v.Origin()
}

// ownerTypeName names the receiver type of a field selection, for
// messages.
func ownerTypeName(pass *Pass, sel *ast.SelectorExpr) string {
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return "?"
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// collectWriteTargets indexes the selector expressions a file assigns
// to (plain assignment, op-assign, ++/--), to distinguish racy writes
// from racy reads in messages.
func collectWriteTargets(f *ast.File) map[*ast.SelectorExpr]bool {
	writes := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if sel, ok := unparenExpr(l).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := unparenExpr(n.X).(*ast.SelectorExpr); ok {
				writes[sel] = true
			}
		}
		return true
	})
	return writes
}
