package lint

import (
	"bufio"
	"go/ast"
	"go/types"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module's packages, loaded once for every test that reads the whole
// tree: type-checking the standard library from source is most of this
// package's test time.
var (
	moduleOnce sync.Once
	moduleL    *Loader
	modulePkgs []*Package
	moduleErr  error
)

func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	moduleOnce.Do(func() {
		if moduleL, moduleErr = NewLoader("."); moduleErr == nil {
			modulePkgs, moduleErr = moduleL.LoadModule()
		}
	})
	if moduleErr != nil {
		t.Fatalf("loading module packages: %v", moduleErr)
	}
	return moduleL, modulePkgs
}

// TestEveryFunctionIsReached fails on a non-test function that no
// production root reaches: code that exists only for its tests. The roots
// are the root package's exported API, every main, init and package-level
// initializer, everything benchmark/ (a module of its own, type-checked
// here from the same tree) calls, and every method that satisfies a method
// of an interface the module declares or imports — a call through an
// interface reaches each of them. A function listed in reach.allow with a
// reason passes; a listed one that is reached or gone fails, and so does a
// list longer than ten. A listed function is no root: what only it calls
// must be listed too.
func TestEveryFunctionIsReached(t *testing.T) {
	l, pkgs := loadModule(t)
	unreached := unreachedFuncs(l, pkgs)
	allowed := readAllowList(t, "reach.allow")
	if len(allowed) > 10 {
		t.Errorf("reach.allow lists %d functions; keep it at ten or fewer", len(allowed))
	}
	for _, name := range unreached {
		if !allowed[name] {
			t.Errorf("%s: reached only by tests (delete it, move it to a test file, or list it in reach.allow with a reason)", name)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("reach.allow lists %s, which is reached or gone", name)
	}
}

// unreachedFuncs returns "<import path>.<FuncRef name>" for every function
// and method declared in a non-test file of the module that no root
// reaches, sorted. benchmark/'s own functions are roots, never findings.
func unreachedFuncs(l *Loader, pkgs []*Package) []string {
	bench := l.modPath + "/benchmark"
	decls := map[*types.Func]FuncRef{}
	calls := map[*types.Func][]*types.Func{}
	var roots []*types.Func
	var concrete []*types.Named

	uses := func(p *Package, n ast.Node) (out []*types.Func) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := p.Info.Uses[id].(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
			return true
		})
		return out
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					roots = append(roots, uses(p, d)...) // package-level initializers
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				calls[fn] = uses(p, fd)
				if p.Path != bench {
					decls[fn] = funcRefOf(p.Path, fd)
				}
				if p.Path == bench || fd.Recv == nil && (fd.Name.Name == "init" ||
					fd.Name.Name == "main" && p.Types.Name() == "main") {
					roots = append(roots, fn)
				}
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
					concrete = append(concrete, named)
				}
			}
			if p.Path != l.modPath || !obj.Exported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				roots = append(roots, obj)
			case *types.TypeName: // its exported methods, promoted and aliased ones included
				for _, m := range methodsOf(obj.Type()) {
					if m.Exported() {
						roots = append(roots, m)
					}
				}
			}
		}
	}

	// A method is reached through any interface it helps satisfy.
	for _, iface := range interfacesOf(pkgs) {
		for _, named := range concrete {
			if named.TypeParams().Len() > 0 {
				continue // Implements needs an instantiated type
			}
			for _, v := range []types.Type{named, types.NewPointer(named)} {
				if !types.Implements(v, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(v, true, m.Pkg(), m.Name()); obj != nil {
						roots = append(roots, obj.(*types.Func).Origin())
					}
				}
				break
			}
		}
	}

	reached := map[*types.Func]bool{}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !reached[fn] {
			reached[fn] = true
			roots = append(roots, calls[fn]...)
		}
	}
	var out []string
	for fn, ref := range decls {
		if !reached[fn] {
			out = append(out, ref.Pkg+"."+ref.Name)
		}
	}
	sort.Strings(out)
	return out
}

// methodsOf returns the methods of t's and *t's method sets, promoted ones
// resolved to their declarations.
func methodsOf(t types.Type) []*types.Func {
	var out []*types.Func
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		out = append(out, ms.At(i).Obj().(*types.Func).Origin())
	}
	return out
}

// interfacesOf returns every interface with methods that the module's
// packages spell (named or literal) or that a package they import,
// transitively, declares at package scope — plus error.
func interfacesOf(pkgs []*Package) []*types.Interface {
	seen := map[*types.Interface]bool{}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		walk(p.Types)
	}
	return out
}

// readAllowList reads "<name>  # reason" lines into a set. A line without a
// reason fails the test.
func readAllowList(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v", err)
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %q gives no reason", path, line)
		}
		out[strings.TrimSpace(name)] = true
	}
	return out
}
