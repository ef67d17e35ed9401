package compiler_test

import (
	"path/filepath"
	"testing"

	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/experiments"
	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/scenario"
)

// fuzzOpts keeps header-space enumeration small so each exec stays cheap;
// every other option is the compiler default.
var fuzzOpts = compiler.Options{MaxHeaderSpace: 1 << 12}

// compileText runs NTAPI source through the parser and the compiler and
// renders the outcome: the error text, or the printed p4ir plan.
func compileText(src string) string {
	task, err := ntapi.Parse("fuzz", src)
	if err != nil {
		return "parse: " + err.Error()
	}
	prog, err := compiler.Compile(task, fuzzOpts)
	if err != nil {
		return "compile: " + err.Error()
	}
	return p4ir.Print(prog.P4)
}

// FuzzCompile throws arbitrary source at the NTAPI boundary: parsing and
// compiling must never panic, and compiling the same source twice must give
// byte-identical error text or generated plan (the plan verdict, including
// its diagnostics, is deterministic).
func FuzzCompile(f *testing.F) {
	for _, spec := range experiments.Programs() {
		f.Add(spec.Src)
	}
	suites, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "suites", "*.json"))
	if err != nil || len(suites) == 0 {
		f.Fatalf("no suite files found: %v", err)
	}
	for _, path := range suites {
		suite, err := scenario.Load(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, sc := range suite.Scenarios {
			f.Add(string(sc.Program.Source))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		first := compileText(src)
		if second := compileText(src); second != first {
			t.Fatalf("compile is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
		}
	})
}
