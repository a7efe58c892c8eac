// Command ioslint is the repository's static-analysis gate: a
// multichecker over the custom analyzers in internal/lint, which
// mechanically enforce the determinism, fingerprint-soundness and
// wire-taint conventions the serving stack's correctness claims rest on.
//
// Usage:
//
//	go run ./cmd/ioslint ./...          # analyze packages by pattern
//	go run ./cmd/ioslint -list          # describe the analyzers
//	go run ./cmd/ioslint -only determinism,fingerprint ./...
//	go run ./cmd/ioslint -json ./...    # stable rule/position/message array
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
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
	"strings"

	"ios/internal/lint"
)

func main() {
	var (
		listFlag = flag.Bool("list", false, "describe the analyzers and exit")
		jsonFlag = flag.Bool("json", false, "emit findings as a JSON array (stable rule/position/message schema)")
		onlyFlag = flag.String("only", "", "comma-separated subset of analyzers to run")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: ioslint [-list] [-json] [-only a,b] package-patterns...\n\nFlags:\n")
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
	if *onlyFlag != "" {
		var err error
		analyzers, err = selectAnalyzers(analyzers, *onlyFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ioslint:", err)
			os.Exit(2)
		}
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
	if *jsonFlag {
		if err := writeJSON(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, "ioslint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	if len(all) > 0 {
		if !*jsonFlag {
			fmt.Fprintf(os.Stderr, "ioslint: %d finding(s)\n", len(all))
		}
		os.Exit(1)
	}
}

// selectAnalyzers filters the suite by a comma-separated name list. An
// unknown name is a usage error listing every valid analyzer, so a typo
// fails loudly instead of silently checking nothing.
func selectAnalyzers(all []*lint.Analyzer, names string) ([]*lint.Analyzer, error) {
	index := make(map[string]*lint.Analyzer, len(all))
	valid := make([]string, 0, len(all))
	for _, a := range all {
		index[a.Name] = a
		valid = append(valid, a.Name)
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := index[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(valid, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
