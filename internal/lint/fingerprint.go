package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"
)

// FingerprintDirective annotates a fingerprint encoder:
//
//	//ioslint:fingerprint <import-path>.<TypeName>
//	//ioslint:fingerprint <TypeName>            (type in the same package)
//
// placed in the doc comment of the function (or method) that serializes
// the named struct into a cache key. The analyzer then requires every
// fp:"include" field of that struct to be read by the encoder (directly
// or through same-package helpers it calls).
const FingerprintDirective = "ioslint:fingerprint"

// Fingerprint enforces the repository's cache-key soundness convention.
// The measurement and block caches are only correct while their keys
// cover every latency-relevant input — PR 4's near-miss, where two
// backend Specs differing only in fields the key did not encode would
// have aliased each other's latencies, is exactly the bug class this
// rules out. The convention has two halves:
//
//   - every field of a fingerprinted struct (one with at least one fp
//     struct tag) carries fp:"include" or fp:"exempt", so a newly added
//     field is a build-time decision, not a silent cache-aliasing bug;
//   - every fp:"include" field is consumed by each encoder annotated
//     with //ioslint:fingerprint for that struct.
var Fingerprint = &Analyzer{
	Name: "fingerprint",
	Doc: "Enforce the fp:\"include\"/fp:\"exempt\" struct-tag convention: " +
		"fingerprinted structs must tag every field, and every included field " +
		"must be consumed by the //ioslint:fingerprint-annotated encoder(s).",
	Run: runFingerprint,
}

func runFingerprint(pass *Pass) error {
	for _, f := range pass.Files {
		checkTagCompleteness(pass, f)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				ref, ok := cutDirective(c.Text, FingerprintDirective)
				if !ok {
					continue
				}
				checkEncoder(pass, fd, ref)
			}
		}
	}
	return nil
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

// checkTagCompleteness verifies that in every struct declared in f that
// uses fp tags at all, each field carries a well-formed one.
func checkTagCompleteness(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		any := false
		for _, fld := range st.Fields.List {
			if _, ok := fpTag(fld); ok {
				any = true
				break
			}
		}
		if !any {
			return true
		}
		for _, fld := range st.Fields.List {
			val, ok := fpTag(fld)
			if !ok {
				pass.Reportf(fld.Pos(), "field %s of fingerprinted struct %s has no fp tag: add fp:\"include\" and extend the fingerprint encoder (bumping its key version), or fp:\"exempt\" with a comment saying why the field cannot influence a cached value", fieldNames(fld), ts.Name.Name)
				continue
			}
			if val != "include" && val != "exempt" {
				pass.Reportf(fld.Pos(), "field %s of fingerprinted struct %s has fp:%q; the only valid values are \"include\" and \"exempt\"", fieldNames(fld), ts.Name.Name, val)
			}
		}
		return true
	})
}

// fpTag returns the fp struct-tag value of a field, if present.
func fpTag(fld *ast.Field) (string, bool) {
	if fld.Tag == nil {
		return "", false
	}
	// Tag literal includes the quotes.
	tag := strings.Trim(fld.Tag.Value, "`")
	return reflect.StructTag(tag).Lookup("fp")
}

// checkEncoder resolves one //ioslint:fingerprint directive and verifies
// the annotated function consumes every fp:"include" field of the named
// struct.
func checkEncoder(pass *Pass, fd *ast.FuncDecl, ref string) {
	tn, errMsg := resolveTypeRef(pass, ref)
	if tn == nil {
		pass.Reportf(fd.Name.Pos(), "fingerprint directive: %s", errMsg)
		return
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(fd.Name.Pos(), "fingerprint directive: %s is not a struct type", ref)
		return
	}
	include := make(map[*types.Var]bool)
	tagged := false
	for i := 0; i < st.NumFields(); i++ {
		v, ok := reflect.StructTag(st.Tag(i)).Lookup("fp")
		if ok {
			tagged = true
		}
		if v == "include" {
			include[st.Field(i)] = false
		}
	}
	if !tagged {
		pass.Reportf(fd.Name.Pos(), "fingerprint directive: %s has no fp-tagged fields; tag every latency-relevant field fp:\"include\" (and the rest fp:\"exempt\")", ref)
		return
	}

	// Mark fields read by the encoder, following same-package callees.
	index := packageFuncDecls(pass)
	seen := map[*ast.FuncDecl]bool{}
	var visit func(fn *ast.FuncDecl)
	visit = func(fn *ast.FuncDecl) {
		if fn == nil || seen[fn] || fn.Body == nil {
			return
		}
		seen[fn] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok {
						if _, tracked := include[v]; tracked {
							include[v] = true
						}
					}
				}
			case *ast.CallExpr:
				if callee := calledFunc(pass, n); callee != nil {
					visit(index[callee])
				}
			}
			return true
		})
	}
	visit(fd)

	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		consumed, tracked := include[v]
		if tracked && !consumed {
			pass.Reportf(fd.Name.Pos(), "fingerprint encoder %s does not consume %s.%s (fp:\"include\"): two configurations differing only in that field would alias one cache entry — extend the encoder and bump its key version, or retag the field fp:\"exempt\"", fd.Name.Name, tn.Name(), v.Name())
		}
	}
}

// resolveTypeRef resolves "path.Name" or "Name" to a type name in the
// current package or one of its direct imports.
func resolveTypeRef(pass *Pass, ref string) (*types.TypeName, string) {
	path, name := "", ref
	if i := strings.LastIndexByte(ref, '.'); i >= 0 {
		path, name = ref[:i], ref[i+1:]
	}
	lookup := func(p *types.Package) (*types.TypeName, string) {
		obj := p.Scope().Lookup(name)
		if obj == nil {
			return nil, "type " + name + " not found in " + p.Path()
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return nil, ref + " is not a type"
		}
		return tn, ""
	}
	if path == "" || path == pass.Pkg.Path() {
		return lookup(pass.Pkg)
	}
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == path {
			return lookup(imp)
		}
	}
	return nil, "package " + path + " is not imported by " + pass.Pkg.Path()
}

// packageFuncDecls indexes the package's function declarations by their
// type-checker objects, for same-package call following.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
	}
	return m
}

// calledFunc resolves a call expression's callee to its declared
// function object, if it is a plain function or method call. Calls into
// generic code — an explicitly instantiated function f[T](...), or a
// method of an instantiated generic type — resolve to the generic
// declaration, the object the package's FuncDecl index is keyed by.
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

// fieldNames renders a field declaration's name list (or its type for
// embedded fields).
func fieldNames(fld *ast.Field) string {
	if len(fld.Names) == 0 {
		return types.ExprString(fld.Type)
	}
	names := make([]string, len(fld.Names))
	for i, n := range fld.Names {
		names[i] = n.Name
	}
	return strings.Join(names, ", ")
}
