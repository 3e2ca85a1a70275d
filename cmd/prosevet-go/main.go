// Command prosevet-go runs the platform's custom Go vet suite — clockcheck,
// ctxtwin, nilsafe, lockorder, spanend, wirecover and shipped (see
// internal/lint) — over a source tree. shipped needs the whole module: run it
// over the module root. It needs no
// module downloads or go/packages driver: files are parsed directly, so it
// works in hermetic CI.
//
// Usage:
//
//	prosevet-go [dir]          # default: .
//	prosevet-go -only clockcheck internal/core
//
// Exits 1 when any diagnostic is reported. Waive a finding with a
// `//lint:allow <analyzer>` comment on (or directly above) the flagged line.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	// "./..." is accepted for familiarity; the walker always recurses.
	root = strings.TrimSuffix(root, "...")
	if root != "." {
		root = strings.TrimSuffix(root, "/")
	}
	if root == "" {
		root = "."
	}

	all := []*lint.Analyzer{lint.ClockCheck, lint.CtxTwin, lint.NilSafe, lint.LockOrder, lint.SpanEnd, lint.WireCover, lint.Shipped}
	analyzers := all
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "prosevet-go: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	fset, pkgs, err := lint.Load(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prosevet-go: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(fset, pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
