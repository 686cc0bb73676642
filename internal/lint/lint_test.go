package lint

import (
	"testing"
)

// TestInvariantsModuleClean runs the production analyzer suite over every
// package in the module and requires zero findings: the ROADMAP
// invariants hold mechanically on the current tree. A failure names the
// invariant and the offending site — fix the code (or, deliberately and
// with review, extend config.go's blessed lists).
func TestInvariantsModuleClean(t *testing.T) {
	l, pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d) — loader broken?", len(pkgs))
	}
	diags := RunAnalyzers(l.Fset, pkgs, DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLoaderResolvesIntraModuleImports pins the loader mechanics: the
// engine package (deep intra-module import graph) type-checks and its
// dependencies are memoized.
func TestLoaderResolvesIntraModuleImports(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	p, err := l.LoadDir("../engine")
	if err != nil {
		t.Fatalf("loading internal/engine: %v", err)
	}
	if p.Types == nil || p.Types.Name() != "engine" {
		t.Fatalf("engine package not type-checked: %+v", p.Types)
	}
	if _, ok := l.pkgs["quokka/internal/trace"]; !ok {
		t.Fatalf("dependency quokka/internal/trace not memoized: %v", keysOf(l.pkgs))
	}
}

func keysOf(m map[string]*Package) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
