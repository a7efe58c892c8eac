// Package lint is the repository's custom static-analysis suite: a small
// go/analysis-style framework plus two analyzers that mechanically
// enforce invariants correctness claims in this reproduction rest on —
// reproducible outputs across cache hits and restarts, and peer and file
// bytes that are validated before a cache or plan registry trusts them.
// Each guards a defect class this tree has actually had; encoding the
// convention here makes the next violation a build-time error instead of
// a wrong answer. That cache keys cover every latency-relevant field is
// not checked here but by a test that perturbs each field of each
// fingerprinted type (blockcache's TestKeyEncodersCoverIncludeFields).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, an analysistest-style fixture runner in
// linttest) but is built on the standard library alone — go/ast,
// go/types, and the stdlib source importer — so the module keeps zero
// external dependencies and the suite runs in offline build
// environments. cmd/ioslint is the multichecker driver.
//
// # Analyzers
//
//   - determinism: in packages declared deterministic with an
//     `//ioslint:deterministic` comment, flags wall-clock reads
//     (time.Now and friends), global math/rand state, and ranging over a
//     map where the iteration order can reach an append, serialized
//     output, or fingerprint encoder.
//   - wiretaint: values from //ioslint:untrusted sources (peer HTTP
//     bodies, cache files, request JSON) must pass through an
//     //ioslint:validator function before reaching Commit, Merge, or
//     RegisterPlan sinks.
//
// Those three //ioslint: directives are the whole vocabulary: any other
// //ioslint:<word> is reported, so a misspelled marker can never
// silently switch its check off.
//
// # Suppressing a finding
//
// A deliberate exception is annotated at the offending line (or the line
// directly above it):
//
//	//lint:ioslint-ignore <analyzer> <reason>
//
// The reason is mandatory: an ignore without one is itself reported.
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

// An Analyzer describes one static check. The shape follows
// golang.org/x/tools/go/analysis so the suite could migrate onto the
// real framework if the module ever takes the dependency.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description shown by `ioslint -list`.
	Doc string
	// Run analyzes one package, reporting findings through the pass.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// Pkg and Info are the type-checker's outputs for the package.
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in report order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, WireTaint}
}

// byName maps analyzer names for directive validation.
func byName(as []*Analyzer) map[string]bool {
	m := make(map[string]bool, len(as))
	for _, a := range as {
		m[a.Name] = true
	}
	return m
}

// IgnoreDirective is the comment form that suppresses one analyzer's
// findings on the directive's own line and the line directly below it.
const IgnoreDirective = "lint:ioslint-ignore"

// directives are the //ioslint: markers the analyzers read.
var directives = map[string]bool{
	DeterministicDirective: true,
	UntrustedDirective:     true,
	ValidatorDirective:     true,
}

// ignore is one parsed suppression.
type ignore struct {
	analyzer string
	pos      token.Pos
	line     int
	file     string
	used     bool
}

// RunAnalyzers runs the given analyzers over one loaded package and
// returns the surviving diagnostics, sorted by position: findings
// suppressed by a well-formed `//lint:ioslint-ignore <analyzer> <reason>`
// directive are dropped, and malformed or unknown-analyzer ignores, as
// well as //ioslint: markers no analyzer reads, are reported as findings
// of the driver itself (analyzer "ioslint"), so a typo in a directive can
// never silently disable a check.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
		}
	}

	// Directive names are validated against the full suite, not the run
	// subset: a run of determinism alone must not misreport a wiretaint
	// ignore as naming an unknown analyzer.
	ignores, bad := parseDirectives(pkg, byName(All()))
	kept := diags[:0]
	for _, d := range diags {
		if suppressed(ignores, d) {
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, bad...)
	// An ignore that suppresses nothing is stale; report it so dead
	// suppressions are cleaned up rather than accumulating. Only ignores
	// for analyzers that actually ran can be judged stale.
	ran := byName(analyzers)
	for _, ig := range ignores {
		if !ig.used && ran[ig.analyzer] {
			kept = append(kept, Diagnostic{
				Pos:      pkg.Fset.Position(ig.pos),
				Analyzer: "ioslint",
				Message:  fmt.Sprintf("ignore directive for %q suppresses no finding; remove it", ig.analyzer),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return kept[i].Message < kept[j].Message
	})
	return kept, nil
}

// parseDirectives scans every comment of the package for ignore
// directives, and reports each //ioslint: marker that names no directive.
func parseDirectives(pkg *Package, known map[string]bool) (igs []*ignore, bad []Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments are never directives
				}
				if strings.HasPrefix(text, "ioslint:") {
					if word := strings.Fields(text)[0]; !directives[word] {
						bad = append(bad, Diagnostic{Pos: pkg.Fset.Position(c.Pos()), Analyzer: "ioslint",
							Message: fmt.Sprintf("unknown directive //%s: the directives are deterministic, untrusted and validator", word)})
					}
					continue
				}
				text, ok = strings.CutPrefix(strings.TrimSpace(text), IgnoreDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				name, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				switch {
				case name == "":
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "ioslint",
						Message: "malformed ignore directive: want //lint:ioslint-ignore <analyzer> <reason>"})
				case !known[name]:
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "ioslint",
						Message: fmt.Sprintf("ignore directive names unknown analyzer %q", name)})
				case strings.TrimSpace(reason) == "":
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "ioslint",
						Message: fmt.Sprintf("ignore directive for %q has no reason; justify the exception", name)})
				default:
					igs = append(igs, &ignore{
						analyzer: name,
						pos:      c.Pos(),
						line:     pos.Line,
						file:     pos.Filename,
					})
				}
			}
		}
	}
	return igs, bad
}

// suppressed reports whether a directive covers d, marking it used. A
// directive covers its own line (trailing comment) and the next line
// (comment-above style).
func suppressed(igs []*ignore, d Diagnostic) bool {
	for _, ig := range igs {
		if ig.analyzer != d.Analyzer {
			continue
		}
		if ig.file != d.Pos.Filename {
			continue
		}
		if d.Pos.Line == ig.line || d.Pos.Line == ig.line+1 {
			ig.used = true
			return true
		}
	}
	return false
}

// hasDirective reports whether any comment line in the package equals
// "//" + directive (after space trimming), e.g. "//ioslint:deterministic".
func hasDirective(files []*ast.File, directive string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == "//"+directive {
					return true
				}
			}
		}
	}
	return false
}

// isTestFile reports whether pos is inside a _test.go file (analysis of
// loaded packages excludes them, but fixtures and future loaders may
// not).
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(filepath.Base(fset.Position(pos).Filename), "_test.go")
}

// funcScopes walks a file and calls visit for every function body —
// declarations and literals — with the innermost enclosing function node
// (*ast.FuncDecl or *ast.FuncLit) available to the callback via the
// stack.
type funcStack []ast.Node

// enclosing returns the innermost function node, or nil at package level.
func (s funcStack) enclosing() ast.Node {
	if len(s) == 0 {
		return nil
	}
	return s[len(s)-1]
}

// walkFuncs traverses file, maintaining the function-nesting stack and
// invoking fn for every node with the current stack.
func walkFuncs(file *ast.File, fn func(n ast.Node, stack funcStack)) {
	var stack funcStack
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn(n, stack)
			stack = append(stack, n)
			// Walk children manually so the pop happens at the right time.
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					ast.Inspect(d.Body, walk)
				}
			case *ast.FuncLit:
				ast.Inspect(d.Body, walk)
			}
			stack = stack[:len(stack)-1]
			return false
		default:
			fn(n, stack)
			return true
		}
	}
	ast.Inspect(file, walk)
}
