package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UntrustedDirective marks a statement whose results cross a trust
// boundary — a peer HTTP body, a cache file, request JSON:
//
//	var body pushRequest
//	err := json.Unmarshal(raw, &body) //ioslint:untrusted peer HTTP body
//
// as a trailing comment or on the line directly above. The values the
// statement assigns (and the targets of &x arguments, the
// json.Unmarshal pattern) are tainted.
const UntrustedDirective = "ioslint:untrusted"

// ValidatorDirective marks a function that validates wire input before
// it is trusted; calls to it cleanse taint. It must be able to reject —
// a validator that returns no error is reported. Cross-package,
// module-internal functions named Decode, Validate, or Merge are
// treated as validators by convention (the loader cannot see directives
// across package boundaries); in any package that participates in the
// wire-trust discipline, an exported function with one of those names
// must carry the directive so the convention stays honest.
const ValidatorDirective = "ioslint:validator"

// wireSinks are the call names a tainted value must not reach raw: they
// commit data into the caches and plan registries every search trusts.
var wireSinks = map[string]bool{"Commit": true, "Merge": true, "RegisterPlan": true}

// wireValidatorNames are the conventional validator names recognized
// across package boundaries (module-internal callees only).
var wireValidatorNames = map[string]bool{"Decode": true, "Validate": true, "Merge": true}

// WireTaint is a function-local taint pass over the wire-trust
// annotations: values produced by an //ioslint:untrusted statement stay
// tainted through assignments, field selections, and non-validator
// calls, and must pass through an //ioslint:validator function before
// reaching a Commit, Merge, or RegisterPlan sink. The pass is
// deliberately local — taint does not flow across function boundaries —
// so a function that returns untrusted data is annotated at its call
// sites (or becomes a validator itself).
var WireTaint = &Analyzer{
	Name: "wiretaint",
	Doc: "Values from //ioslint:untrusted sources (peer HTTP bodies, cache " +
		"files, request JSON) must pass through an //ioslint:validator " +
		"function before reaching Commit/Merge/RegisterPlan sinks.",
	Run: runWireTaint,
}

// untrustedMark is one //ioslint:untrusted comment line.
type untrustedMark struct {
	pos  token.Pos
	used bool
}

func runWireTaint(pass *Pass) error {
	validators := collectValidators(pass)
	marks := collectUntrusted(pass)
	if len(validators) > 0 || len(marks) > 0 {
		checkValidatorConvention(pass, validators)
	}
	if len(marks) > 0 {
		for _, f := range pass.Files {
			if isTestFile(pass.Fset, f.Pos()) {
				continue
			}
			fileMarks := marks[pass.Fset.Position(f.Pos()).Filename]
			walkFuncs(f, func(n ast.Node, stack funcStack) {
				fd, ok := n.(*ast.FuncDecl)
				if !ok || fd.Body == nil || len(stack) > 0 {
					return
				}
				runTaint(pass, validators, fileMarks, fd.Body)
			})
		}
	}
	for _, byLine := range marks {
		for _, m := range byLine {
			if !m.used {
				pass.Reportf(m.pos, "untrusted marker attaches to no statement (it covers its own line and the next); move it to the statement that receives the wire data")
			}
		}
	}
	return nil
}

// collectValidators finds //ioslint:validator functions declared in this
// package and checks each can reject its input.
func collectValidators(pass *Pass) map[*types.Func]bool {
	validators := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if _, ok := cutDirective(c.Text, ValidatorDirective); !ok {
					continue
				}
				fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				validators[fn] = true
				if !returnsError(fn) {
					pass.Reportf(fd.Name.Pos(), "validator %s returns no error: a validator must be able to reject its input", fd.Name.Name)
				}
			}
		}
	}
	return validators
}

// returnsError reports whether any of fn's results is the error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// checkValidatorConvention enforces the cross-package naming convention
// in packages that participate in the wire-trust discipline: exported
// Decode/Validate/Merge functions must carry the validator directive,
// because callers in other packages will treat them as validators.
func checkValidatorConvention(pass *Pass, validators map[*types.Func]bool) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !wireValidatorNames[fd.Name.Name] {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || validators[fn] {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "exported %s is treated as a wire validator by cross-package convention; annotate it //ioslint:validator (and make sure it validates), or rename it", fd.Name.Name)
		}
	}
}

// collectUntrusted indexes //ioslint:untrusted comment lines by file.
func collectUntrusted(pass *Pass) map[string]map[int]*untrustedMark {
	marks := make(map[string]map[int]*untrustedMark)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := cutDirective(c.Text, UntrustedDirective); !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				if marks[p.Filename] == nil {
					marks[p.Filename] = make(map[int]*untrustedMark)
				}
				marks[p.Filename][p.Line] = &untrustedMark{pos: c.Pos()}
			}
		}
	}
	return marks
}

// taintPass is the per-function taint state.
type taintPass struct {
	pass       *Pass
	validators map[*types.Func]bool
	marks      map[int]*untrustedMark
	tainted    map[types.Object]bool
}

// runTaint runs the taint engine over one function body to a fixpoint,
// then reports tainted sink arguments.
func runTaint(pass *Pass, validators map[*types.Func]bool, marks map[int]*untrustedMark, body *ast.BlockStmt) {
	tp := &taintPass{pass: pass, validators: validators, marks: marks, tainted: make(map[types.Object]bool)}
	for i := 0; i < 4; i++ {
		before := len(tp.tainted)
		tp.walk(body, false)
		if len(tp.tainted) == before {
			break
		}
	}
	tp.walk(body, true)
}

// sourceMarked reports whether pos sits on (or directly below) an
// untrusted marker line, consuming the mark.
func (tp *taintPass) sourceMarked(pos token.Pos) bool {
	if tp.marks == nil {
		return false
	}
	line := tp.pass.Fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if m, ok := tp.marks[l]; ok {
			m.used = true
			return true
		}
	}
	return false
}

// walk propagates taint through the body; when report is set it also
// flags tainted sink arguments.
func (tp *taintPass) walk(body *ast.BlockStmt, report bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			src := tp.sourceMarked(n.Pos())
			if !src {
				for _, r := range n.Rhs {
					if tp.exprTainted(r) {
						src = true
						break
					}
				}
			}
			if src {
				for _, l := range n.Lhs {
					tp.taintExpr(l)
				}
			}
		case *ast.ValueSpec:
			src := tp.sourceMarked(n.Pos())
			if !src {
				for _, v := range n.Values {
					if tp.exprTainted(v) {
						src = true
						break
					}
				}
			}
			if src {
				for _, name := range n.Names {
					if obj := tp.pass.Info.Defs[name]; obj != nil {
						tp.tainted[obj] = true
					}
				}
			}
		case *ast.RangeStmt:
			if tp.exprTainted(n.X) {
				tp.taintExpr(n.Key)
				tp.taintExpr(n.Value)
			}
		case *ast.CallExpr:
			tp.handleCall(n, report)
		}
		return true
	})
}

// handleCall propagates taint into &x arguments of non-validator calls
// and, in the report phase, flags tainted arguments reaching sinks.
func (tp *taintPass) handleCall(call *ast.CallExpr, report bool) {
	fn := calledFunc(tp.pass, call)
	isValidator := tp.validatorCall(fn)
	src := tp.sourceMarked(call.Pos())
	argTainted := false
	for _, a := range call.Args {
		if tp.exprTainted(a) {
			argTainted = true
			break
		}
	}
	if !isValidator && (src || argTainted) {
		// The Unmarshal pattern: a call fed wire data fills its pointer
		// arguments with wire data.
		for _, a := range call.Args {
			if un, ok := a.(*ast.UnaryExpr); ok && un.Op == token.AND {
				tp.taintExpr(un.X)
			}
		}
	}
	if report && fn != nil && wireSinks[fn.Name()] && !isValidator && argTainted {
		tp.pass.Reportf(call.Pos(), "wire-tainted value reaches %s without validation: route it through an //ioslint:validator function (or a module-internal Decode/Validate/Merge) first", fn.Name())
	}
}

// validatorCall reports whether calling fn cleanses taint: it carries
// the directive in this package, or is a module-internal function with
// a conventional validator name.
func (tp *taintPass) validatorCall(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if tp.validators[fn] {
		return true
	}
	if fn.Pkg() == nil || !wireValidatorNames[fn.Name()] {
		return false
	}
	return moduleRoot(fn.Pkg().Path()) == moduleRoot(tp.pass.Pkg.Path())
}

// moduleRoot returns the first segment of an import path.
func moduleRoot(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
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

// taintExpr taints the root object of an assignable expression.
func (tp *taintPass) taintExpr(e ast.Expr) {
	if e == nil {
		return
	}
	if root := rootIdent(e); root != nil && root.Name != "_" {
		if obj := tp.pass.Info.ObjectOf(root); obj != nil {
			tp.tainted[obj] = true
		}
	}
}

// exprTainted reports whether evaluating e can yield wire-tainted data.
func (tp *taintPass) exprTainted(e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		obj := tp.pass.Info.ObjectOf(e)
		return obj != nil && tp.tainted[obj]
	case *ast.SelectorExpr:
		return tp.exprTainted(e.X)
	case *ast.CallExpr:
		if tv, ok := tp.pass.Info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: taint follows the operand.
			return len(e.Args) == 1 && tp.exprTainted(e.Args[0])
		}
		if tp.validatorCall(calledFunc(tp.pass, e)) {
			return false
		}
		if fun, ok := e.Fun.(*ast.SelectorExpr); ok && tp.exprTainted(fun.X) {
			return true
		}
		for _, a := range e.Args {
			if tp.exprTainted(a) {
				return true
			}
		}
		return false
	case *ast.ParenExpr:
		return tp.exprTainted(e.X)
	case *ast.StarExpr:
		return tp.exprTainted(e.X)
	case *ast.UnaryExpr:
		return tp.exprTainted(e.X)
	case *ast.BinaryExpr:
		return tp.exprTainted(e.X) || tp.exprTainted(e.Y)
	case *ast.IndexExpr:
		return tp.exprTainted(e.X) || tp.exprTainted(e.Index)
	case *ast.SliceExpr:
		return tp.exprTainted(e.X)
	case *ast.TypeAssertExpr:
		return tp.exprTainted(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if tp.exprTainted(el) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// cutDirective extracts the argument of a "//<name> <arg>" comment.
func cutDirective(comment, name string) (string, bool) {
	text, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return "", false
	}
	text, ok = strings.CutPrefix(strings.TrimSpace(text), name)
	if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
		return "", false
	}
	return strings.TrimSpace(text), true
}

// calledFunc resolves a call expression's callee to its declared
// function object, if it is a plain function or method call. Calls into
// generic code — an explicitly instantiated function f[T](...), or a
// method of an instantiated generic type — resolve to the generic
// declaration, the object collectValidators records a validator under.
func calledFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var fn *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ = pass.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.Info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}
