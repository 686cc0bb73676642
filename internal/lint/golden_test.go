package lint

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Golden-file tests: each testdata package exercises one analyzer with
// positive and negative cases. A `// want "substring"` comment on a line
// asserts a diagnostic whose message contains the substring lands there
// (`// want-next` asserts on the following line, for diagnostics on
// comment lines); any diagnostic without a matching want, or want
// without a diagnostic, fails.

var (
	wantRe   = regexp.MustCompile(`^//\s*want(-next)?\s+(.*)$`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

type lineKey struct {
	file string
	line int
}

func runGolden(t *testing.T, dir string, mk func(pkgPath string) *Analyzer) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	p, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags := RunAnalyzers(l.Fset, []*Package{p}, []*Analyzer{mk(p.Path)})

	wants := map[lineKey][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] == "-next" {
					line++
				}
				quoted := quotedRe.FindAllString(m[2], -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment carries no quoted pattern: %s", pos.Filename, pos.Line, c.Text)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					k := lineKey{pos.Filename, line}
					wants[k] = append(wants[k], s)
				}
			}
		}
	}

	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		ws := wants[k]
		found := -1
		for i, w := range ws {
			if strings.Contains(d.Message, w) {
				found = i
				break
			}
		}
		if found < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(ws[:found], ws[found+1:]...)
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", k.file, k.line, w)
		}
	}
}

func TestGoldenHashOnce(t *testing.T) {
	runGolden(t, "testdata/src/hashonce/a", func(string) *Analyzer {
		return NewHashOnce(HashOnceConfig{AllowedPkgs: nil})
	})
}

func TestGoldenHashOnceAllowedPackage(t *testing.T) {
	// The same violations produce nothing when the package is the
	// blessed hash home.
	runGolden(t, "testdata/src/hashonce/allowed", func(pkgPath string) *Analyzer {
		return NewHashOnce(HashOnceConfig{AllowedPkgs: []string{pkgPath}})
	})
}

func TestGoldenNSKey(t *testing.T) {
	runGolden(t, "testdata/src/nskey/a", func(pkgPath string) *Analyzer {
		return NewNSKey(NSKeyConfig{
			Prefixes: map[string][]FuncRef{
				"spill/": {{Pkg: pkgPath, Name: "spillPrefix"}},
				"bk/":    {{Pkg: pkgPath, Name: "backupPrefix"}},
			},
			SweepFuncs:       []FuncRef{{Pkg: pkgPath, Name: "sweep"}},
			SweepMethodNames: []string{"DeletePrefix"},
			RangeMethods:     map[string]string{"List": "a.Txn", "DeleteNS": "a.Txn"},
			MethodCallers:    map[string][]FuncRef{"DeleteNS": {{Pkg: pkgPath, Name: "teardown"}}},
		})
	})
}

func TestGoldenNSKeyWireRelay(t *testing.T) {
	// The wire-handler configuration: the transaction handler is an audited
	// sweep (its range calls enumerate namespaces REMOTE callers named, built
	// by blessed helpers on the other end of the conn), the package is blessed
	// for no prefix, and closures inside the handler attribute to it.
	runGolden(t, "testdata/src/nskey/wire", func(pkgPath string) *Analyzer {
		return NewNSKey(NSKeyConfig{
			Prefixes: map[string][]FuncRef{
				"q/": {{Pkg: "some/other/engine", Name: "keyNS"}},
			},
			SweepFuncs:   []FuncRef{{Pkg: pkgPath, Name: "Server.handleGCS"}},
			RangeMethods: map[string]string{"Sync": "wire.Store"},
		})
	})
}

func TestGoldenTraceGate(t *testing.T) {
	runGolden(t, "testdata/src/tracegate/a", func(string) *Analyzer {
		return NewTraceGate(TraceGateConfig{RecorderType: "trace.Recorder"})
	})
}

func TestGoldenDetRange(t *testing.T) {
	runGolden(t, "testdata/src/detrange/a", func(pkgPath string) *Analyzer {
		return NewDetRange(DetRangeConfig{Pkgs: []string{pkgPath}})
	})
}

func TestGoldenDetRangeScopedOut(t *testing.T) {
	// The analyzer ignores packages outside its configured scope.
	runGolden(t, "testdata/src/detrange/scopedout", func(string) *Analyzer {
		return NewDetRange(DetRangeConfig{Pkgs: []string{"some/other/pkg"}})
	})
}
