// Package lint is the repo's invariant linter: a stdlib-only static-
// analysis suite (go/parser + go/types + the source importer — the module
// stays zero-dependency) whose analyzers each mechanically enforce one of
// the recovery invariants written down in ROADMAP.md. The suite runs as a
// normal test (go test ./internal/lint — so tier-1 and the race job gate
// on it for free) and standalone via cmd/quokka-vet / make lint.
//
// The analyzers are generic mechanisms configured by config.go, which is
// where the repo-specific invariant encoding (blessed key helpers, hash
// home package, deterministic packages) lives. See DefaultAnalyzers.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package of the module.
type Package struct {
	// Path is the package's import path ("quokka/internal/engine").
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Files are the package's non-test source files, parsed with comments.
	Files []*ast.File
	// Types and Info carry the go/types results for the files.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module without any
// third-party dependency: intra-module imports are resolved from source
// against the module root, everything else (the stdlib) goes through
// go/importer's source importer.
type Loader struct {
	Fset    *token.FileSet
	root    string // module root directory (holds go.mod)
	modPath string // module path from go.mod ("quokka")

	std      types.ImporterFrom
	pkgs     map[string]*Package // loaded module packages by import path
	checking map[string]bool     // import-cycle guard
}

// FindModuleRoot walks up from dir to the directory containing go.mod and
// returns it together with the module path declared there.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gomod); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s declares no module path", gomod)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// NewLoader builds a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Fset:     fset,
		root:     root,
		modPath:  modPath,
		std:      std,
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}, nil
}

// LoadModule discovers every package directory under the module root
// (skipping testdata, hidden directories and vendor) and loads each one.
// Returned packages are sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir loads the package in dir (which must live under the module
// root), parsing its non-test files and type-checking them with imports
// resolved recursively. Loading is memoized by import path, so a package
// reached both directly and as a dependency is checked once.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: &moduleImporter{l: l, dir: dir}}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// moduleImporter resolves imports for one package being checked:
// intra-module paths map onto module directories and are loaded (and
// memoized) by the owning Loader; everything else is delegated to the
// stdlib source importer.
type moduleImporter struct {
	l   *Loader
	dir string
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l := m.l
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		p, err := l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, m.dir, 0)
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// goFileNames lists the non-test Go source files of dir, sorted.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
