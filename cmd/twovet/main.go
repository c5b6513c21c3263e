// Command twovet is the repo's multichecker: it runs the custom
// static-analysis suite of internal/lint (detorder, ctxprobe,
// nowallclock, scratchescape) over the module, next to `go vet` and
// staticcheck in CI.
//
// Usage:
//
//	go run ./cmd/twovet ./...          # lint the module (CI invocation)
//	go run ./cmd/twovet -list          # print the registered analyzers
//	go run ./cmd/twovet <dir>          # lint one directory (testdata fixtures included)
//
// twovet must run from the module root: type checking resolves module
// import paths through the go command. Exit status: 0 clean, 1
// findings, 2 load/usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"twoview/internal/lint"
)

func main() {
	os.Exit(run(os.Stdout, os.Args[1:]))
}

func run(w io.Writer, args []string) int {
	fs := flag.NewFlagSet("twovet", flag.ContinueOnError)
	list := fs.Bool("list", false, "print the registered analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: twovet [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(w, "%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := &lint.Loader{}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twovet:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twovet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(w, "twovet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
