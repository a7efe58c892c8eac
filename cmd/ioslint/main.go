// Command ioslint is the repository's static-analysis gate: a
// multichecker over the custom analyzers in internal/lint, which
// mechanically enforce the determinism and wire-taint conventions the
// serving stack's correctness claims rest on. Cache-key soundness is a
// test, not an analyzer: blockcache's TestKeyEncodersCoverIncludeFields.
//
// Usage:
//
//	go run ./cmd/ioslint ./...          # analyze packages by pattern
//	go run ./cmd/ioslint -list          # describe the analyzers
//
// Every analyzer runs on every package; findings print one a line as
// file:line:col: [analyzer] message. Exit status: 0 clean, 1 findings,
// 2 usage or load failure.
//
// Suppress a deliberate exception at the offending line (or the line
// above) with:
//
//	//lint:ioslint-ignore <analyzer> <reason>
//
// The suite is built on the standard library only (go/ast, go/types and
// the stdlib source importer) so it runs in offline build environments;
// it intentionally mirrors the golang.org/x/tools/go/analysis shapes so
// it could migrate onto the real framework if the module ever takes that
// dependency.
package main

import (
	"flag"
	"fmt"
	"os"

	"ios/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: ioslint [-list] package-patterns...\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%s:\n  %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ioslint:", err)
		os.Exit(2)
	}
	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ioslint:", err)
			os.Exit(2)
		}
		all = append(all, diags...)
	}
	for _, d := range all {
		fmt.Println(d)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "ioslint: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}
