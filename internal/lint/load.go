package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load resolves the given `go list` patterns (e.g. "./...") to packages
// and type-checks each from source. Test files are excluded: the
// invariants the suite enforces are about library code, and several
// analyzers (determinism in particular) deliberately do not apply to
// tests, which may use wall clocks and fixed maps freely.
//
// Loading shells out to `go list` for pattern resolution and build-tag
// file selection, then type-checks with the standard library's source
// importer — no export data, no network, no external dependencies. Cgo
// is disabled for the importer's view so cgo-using stdlib packages
// resolve to their pure-Go fallbacks.
func Load(dir string, patterns []string) ([]*Package, error) {
	// The stdlib source importer consults go/build's default context;
	// force the pure-Go view so dependency packages never need cgo.
	build.Default.CgoEnabled = false

	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList resolves patterns to package metadata.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-json=Dir,ImportPath,Name,GoFiles,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// typecheck parses and type-checks one listed package.
func typecheck(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	var tcErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { tcErrs = append(tcErrs, err) },
	}
	tpkg, _ := conf.Check(lp.ImportPath, fset, files, info)
	if len(tcErrs) > 0 {
		msgs := make([]string, 0, len(tcErrs))
		for _, e := range tcErrs {
			msgs = append(msgs, e.Error())
		}
		if len(msgs) > 5 {
			msgs = append(msgs[:5], fmt.Sprintf("... and %d more", len(msgs)-5))
		}
		return nil, fmt.Errorf("lint: %s does not type-check:\n  %s", lp.ImportPath, strings.Join(msgs, "\n  "))
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// NewInfo returns a types.Info with every map the analyzers read
// allocated (shared by the loader and the fixture runner, so both
// produce identical passes).
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
