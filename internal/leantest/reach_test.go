package leantest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// repoRules are the roots of this module: the commands, the examples and
// the benchmark driver, the nodevar facade, and the three harness
// packages that only tests import.
var repoRules = rules{
	programs:  []string{"cmd", "examples", "e2ebench"},
	unchecked: []string{"e2ebench"},
	facade:    ".",
	harnesses: []string{"internal/faults/chaostest", "internal/fleet/replaytest", "internal/sampling/resumetest"},
}

// keep lists the unreachable declarations that stay in non-test files
// because the tests of two or more packages call them. Each entry names
// those test packages (module-relative directories, "." for the root
// package); a declaration that only one package's tests use belongs in
// that package's _test.go files instead. What only a kept declaration
// reaches (labelsWithout, ksPValue, the old manifest schema constants)
// needs no entry of its own.
var keep = map[string]keepEntry{
	"internal/cluster.RunResult.NodeTrace": {[]string{"internal/cluster", "internal/methodology"},
		"per-node reference trace that SubsetTraceBetween and the methodology fast paths are checked against"},
	"internal/core.RunAllSequential": {[]string{".", "internal/core"},
		"sequential reference for RunAll's parallel schedule, and its benchmark baseline"},
	"internal/obs.ReadManifest": {[]string{".", "internal/cli", "internal/obs", "internal/server"},
		"reads back the run manifests that commands and the server write"},
	"internal/obs.ValidatePrometheus": {[]string{"internal/obs", "internal/server"},
		"checks /metrics and the registry's text output against the exposition format"},
	"internal/obs.ValidateChromeTrace": {[]string{".", "internal/cli", "internal/obs", "internal/server"},
		"checks -trace-out files and /v1/trace responses against the Chrome trace format"},
	"internal/stats.KolmogorovSmirnov": {[]string{"internal/rng", "internal/stats"},
		"goodness-of-fit oracle for the samplers"},
	"internal/stats.Skewness": {[]string{"internal/cluster", "internal/sampling", "internal/stats", "internal/workload"},
		"checks the shape of simulated node-power and pilot distributions"},
}

type keepEntry struct {
	users  []string // test packages that call it
	reason string
}

// TestReachability fails for every package-level declaration in a
// non-test file that no program, example or facade export reaches and
// that is not on keep, and for every keep entry that the roots or another
// entry reach, that is no longer declared, or that the tests it names no
// longer use.
func TestReachability(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range check(m, repoRules, keep) {
		t.Error(msg)
	}
}

// check runs the pass over m and returns one message per violation.
func check(m *module, r rules, keep map[string]keepEntry) []string {
	kept := map[string]bool{}
	for k := range keep {
		kept[k] = true
	}
	a := m.analyze(r)
	var msgs []string
	for _, d := range a.unreached(kept) {
		msgs = append(msgs, fmt.Sprintf("%s: %s is unreachable: delete it, move it to the _test.go files of the one package whose tests use it, or add it to the keep-list with the test packages that call it",
			relPos(m, d), d.key))
	}
	keys := make([]string, 0, len(keep))
	for k := range keep {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d, ok := a.byKey[k]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("keep-list entry %s is no longer declared: remove it", k))
			continue
		}
		// An entry is needed only if nothing else reaches it: not the
		// roots, and not the other entries.
		kept[k] = false
		reached := a.reachable(kept)[d]
		kept[k] = true
		if reached {
			msgs = append(msgs, fmt.Sprintf("%s: keep-list entry %s is reachable from the roots or another entry: remove it", relPos(m, d), k))
			continue
		}
		e := keep[k]
		if len(e.users) < 2 || e.reason == "" {
			msgs = append(msgs, fmt.Sprintf("%s: keep-list entry %s needs a reason and two or more test packages", relPos(m, d), k))
		}
		name := k[strings.LastIndex(k, ".")+1:]
		for _, u := range e.users {
			if !testsUse(filepath.Join(m.root, filepath.FromSlash(u)), name) {
				msgs = append(msgs, fmt.Sprintf("%s: keep-list entry %s names test package %s, whose tests do not use %s", relPos(m, d), k, u, name))
			}
		}
	}
	return msgs
}

// testsUse reports whether a _test.go file in dir has name as an
// identifier: a mention in a comment, a string or a longer name does not
// count.
func testsUse(dir, name string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(f, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT && lit == name {
				return true
			}
		}
	}
	return false
}

func relPos(m *module, d *decl) string {
	rel, err := filepath.Rel(m.root, d.pos.Filename)
	if err != nil {
		rel = d.pos.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.pos.Line)
}
