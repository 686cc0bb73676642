package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot is the module root as seen from this package's directory.
const repoRoot = "../.."

// TestRemovedExperimentRejected: a sweep this command no longer has exits 1
// and the message lists every experiment that exists.
func TestRemovedExperimentRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "hashpath"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown experiment "hashpath"`) {
		t.Errorf("message does not name the rejected experiment: %q", msg)
	}
	for _, e := range experiments {
		if !regexp.MustCompile(`\b` + e.name + `\b`).MatchString(msg) {
			t.Errorf("message does not list %q: %q", e.name, msg)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("rejected run printed to stdout: %q", stdout.String())
	}
}

// TestDocumentedExperimentsExist: every `-exp <name>` the docs, the
// Makefile, CI and the verify skill tell a reader to run is a real one.
func TestDocumentedExperimentsExist(t *testing.T) {
	have := map[string]bool{"all": true}
	for _, e := range experiments {
		have[e.name] = true
	}
	use := regexp.MustCompile(`-exp[ =]([A-Za-z0-9_]+)`)
	for _, name := range []string{"README.md", "Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join(repoRoot, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range use.FindAllSubmatch(data, -1) {
			if !have[string(m[1])] {
				t.Errorf("%s runs -exp %s, which quokka-bench does not have", name, m[1])
			}
		}
	}
}

// TestNoSweepResultFiles: the modelled-time sweep records are gone from the
// repo root, and nothing outside the history files and benchmark/ (whose
// README is not this module's to edit) still points at one.
func TestNoSweepResultFiles(t *testing.T) {
	// Assembled so that this file does not match its own search.
	const stem = "BENCH" + "_"
	left, err := filepath.Glob(filepath.Join(repoRoot, stem+"*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("sweep result files still in the repo root: %v", left)
	}
	mention := regexp.MustCompile(stem + `[\w*]+\.json`)
	skip := map[string]bool{
		".git": true, ".bench_build": true, "benchmark": true,
		"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true,
	}
	err = filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(repoRoot, path)
		if skip[rel] {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if m := mention.Find(data); m != nil {
			t.Errorf("%s still mentions %s", rel, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
