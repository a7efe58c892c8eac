package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadSource type-checks one inline file as a package, the way the
// fixture loader does, so ignore-directive behavior can be tested with
// directives and findings on controlled lines.
func loadSource(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	files := []*ast.File{f}
	tpkg, err := conf.Check("p", fset, files, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{ImportPath: "p", Fset: fset, Files: files, Types: tpkg, Info: info}
}

func run(t *testing.T, src string) []Diagnostic {
	t.Helper()
	diags, err := RunAnalyzers(loadSource(t, src), All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return diags
}

func TestIgnoreOnLineAbove(t *testing.T) {
	diags := run(t, `//ioslint:deterministic
package p

import "time"

func now() time.Time {
	//lint:ioslint-ignore determinism wall-clock telemetry, excluded from outputs
	return time.Now()
}
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestIgnoreOnSameLine(t *testing.T) {
	diags := run(t, `//ioslint:deterministic
package p

import "time"

func now() time.Time {
	return time.Now() //lint:ioslint-ignore determinism wall-clock telemetry, excluded from outputs
}
`)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestIgnoreWrongAnalyzerDoesNotSuppress(t *testing.T) {
	diags := run(t, `//ioslint:deterministic
package p

import "time"

func now() time.Time {
	//lint:ioslint-ignore wiretaint wrong analyzer named
	return time.Now()
}
`)
	// The finding survives AND the mismatched directive is stale.
	assertMessages(t, diags,
		"time.Now in a deterministic package",
		`ignore directive for "wiretaint" suppresses no finding`)
}

func TestIgnoreWithoutReasonReported(t *testing.T) {
	diags := run(t, `//ioslint:deterministic
package p

import "time"

func now() time.Time {
	//lint:ioslint-ignore determinism
	return time.Now()
}
`)
	assertMessages(t, diags,
		"time.Now in a deterministic package",
		`ignore directive for "determinism" has no reason`)
}

func TestIgnoreUnknownAnalyzerReported(t *testing.T) {
	diags := run(t, `package p

//lint:ioslint-ignore nosuchanalyzer because reasons
func f() {}
`)
	assertMessages(t, diags, `ignore directive names unknown analyzer "nosuchanalyzer"`)
}

// TestMisspelledDirectiveReported: a package marked with a misspelled
// //ioslint:deterministic is never checked for determinism, so the
// marker itself must be the finding.
func TestMisspelledDirectiveReported(t *testing.T) {
	diags := run(t, `//ioslint:determinstic
package p

import "time"

func now() time.Time { return time.Now() }

//ioslint:validator
func check(b []byte) error { return nil }
`)
	assertMessages(t, diags, `unknown directive //ioslint:determinstic`)
}

func TestStaleIgnoreReported(t *testing.T) {
	diags := run(t, `package p

//lint:ioslint-ignore determinism nothing to suppress here
func f() {}
`)
	assertMessages(t, diags, `ignore directive for "determinism" suppresses no finding`)
}

// assertMessages requires diags to contain exactly the given substrings,
// in any order.
func assertMessages(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("want %d diagnostics %q, got %d: %v", len(want), want, len(diags), diags)
	}
	for _, w := range want {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic contains %q in %v", w, diags)
		}
	}
}
