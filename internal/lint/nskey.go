package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// NSKeyConfig configures the nskey analyzer.
type NSKeyConfig struct {
	// Prefixes maps each namespace prefix ("spill/") to the blessed
	// helper functions allowed to spell it as a string literal — ideally
	// exactly one site per prefix.
	Prefixes map[string][]FuncRef
	// SweepFuncs are the functions allowed to call prefix-range
	// operations (DeletePrefix, gcs.Txn.List): the audited per-query
	// sweep/scan sites whose arguments are built by the blessed helpers.
	SweepFuncs []FuncRef
	// SweepMethodNames are the method names treated as prefix-range
	// operations wherever they appear.
	SweepMethodNames []string
	// RangeMethods pins (type, method) pairs as range operations; the
	// type is matched by its fully qualified name suffix ("gcs.Txn").
	RangeMethods map[string]string // method name -> qualified type suffix
	// MethodCallers narrows a range method to its own callers: one named
	// here is legal only inside these functions, not in every SweepFunc.
	MethodCallers map[string][]FuncRef
	// DefiningPkgs may declare and use the range operations freely (the
	// storage/GCS layers that implement them).
	DefiningPkgs []string
	// ExemptPkgs are skipped entirely — the linter's own configuration
	// spells the prefixes as data describing the invariant.
	ExemptPkgs []string
}

// NewNSKey builds the nskey analyzer: all per-query state is namespaced
// by query id — recovery and teardown never sweep a bare "spill/",
// "bk/" or un-prefixed GCS range, and every key is built by exactly one
// blessed helper per namespace. Mechanic: a string literal starting with
// a namespace prefix outside that prefix's blessed helper is illegal,
// and DeletePrefix / GCS range-scan calls are only legal inside the
// audited sweep functions.
func NewNSKey(cfg NSKeyConfig) *Analyzer {
	blessed := make(map[string]map[FuncRef]bool, len(cfg.Prefixes))
	var prefixes []string
	for p, fns := range cfg.Prefixes {
		prefixes = append(prefixes, p)
		m := make(map[FuncRef]bool, len(fns))
		for _, fn := range fns {
			m[fn] = true
		}
		blessed[p] = m
	}
	sweepOK := make(map[FuncRef]bool, len(cfg.SweepFuncs))
	for _, fn := range cfg.SweepFuncs {
		sweepOK[fn] = true
	}
	sweepName := make(map[string]bool, len(cfg.SweepMethodNames))
	for _, n := range cfg.SweepMethodNames {
		sweepName[n] = true
	}
	defining := make(map[string]bool, len(cfg.DefiningPkgs))
	for _, p := range cfg.DefiningPkgs {
		defining[p] = true
	}
	exempt := make(map[string]bool, len(cfg.ExemptPkgs))
	for _, p := range cfg.ExemptPkgs {
		exempt[p] = true
	}

	a := &Analyzer{
		Name: "nskey",
		Doc:  "never sweep a bare prefix: namespace keys come from one blessed helper per prefix",
	}
	a.Run = func(pass *Pass) {
		if exempt[pass.Pkg.Path] {
			return
		}
		for _, f := range pass.Pkg.Files {
			inspectFuncs(f, func(fn *ast.FuncDecl, n ast.Node) bool {
				ref := funcRefOf(pass.Pkg.Path, fn)
				switch node := n.(type) {
				case *ast.BasicLit:
					if node.Kind != token.STRING {
						return true
					}
					val, err := strconv.Unquote(node.Value)
					if err != nil {
						return true
					}
					for _, p := range prefixes {
						if !strings.HasPrefix(val, p) {
							continue
						}
						if blessed[p][ref] {
							continue
						}
						pass.Reportf(node.Pos(),
							"raw %q namespace literal outside the blessed key helper%s — per-query state is namespaced by query id and each prefix has exactly one construction site; build this key through the helper so sweeps can never hit a bare prefix", p, blessedNames(cfg.Prefixes[p]))
					}
				case *ast.CallExpr:
					sel, ok := node.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					name := sel.Sel.Name
					isRange := sweepName[name]
					if !isRange {
						if suffix, ok := cfg.RangeMethods[name]; ok {
							isRange = recvTypeMatches(pass, sel, suffix)
						}
					}
					audited := sweepOK[ref]
					if only, pinned := cfg.MethodCallers[name]; pinned {
						audited = slices.Contains(only, ref)
					}
					if !isRange || defining[pass.Pkg.Path] || audited {
						return true
					}
					pass.Reportf(node.Pos(),
						"%s call outside the audited sweep functions%s — recovery and teardown are per-query; range deletes/scans are only legal in the blessed per-query sweep sites (never sweep a bare prefix)", name, blessedNames(cfg.MethodCallers[name]))
				}
				return true
			})
		}
	}
	return a
}

// recvTypeMatches reports whether the receiver of sel has a (possibly
// pointer) named type whose qualified name ends in suffix.
func recvTypeMatches(pass *Pass, sel *ast.SelectorExpr, suffix string) bool {
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	q := obj.Name()
	if obj.Pkg() != nil {
		q = obj.Pkg().Path() + "." + q
	}
	return q == suffix || strings.HasSuffix(q, "/"+suffix)
}

func blessedNames(fns []FuncRef) string {
	if len(fns) == 0 {
		return ""
	}
	var names []string
	for _, fn := range fns {
		names = append(names, fn.Name)
	}
	return " (" + strings.Join(names, ", ") + ")"
}
