package leantest

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fixtureRules are the roots of testdata/fixture, a module with one case
// per root rule, so the rules are pinned whatever state the repository is
// in.
var fixtureRules = rules{
	programs:  []string{"cmd"},
	facade:    ".",
	harnesses: []string{"internal/harness"},
}

var fixture struct {
	once sync.Once
	m    *module
	err  error
}

// loadFixture type-checks the fixture once for all the tests that read it.
func loadFixture(t *testing.T) *module {
	t.Helper()
	fixture.once.Do(func() { fixture.m, fixture.err = loadModule("testdata/fixture") })
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.m
}

// TestFixtureRootRules pins which fixture declarations are unreachable:
// an uncalled func and method, a method of a type reached only as a
// facade method's parameter, a registered but unread package var, and a
// method that only unexported standard interfaces name. Everything else
// is kept by a rule: main, the interface-name rule (module and exported
// standard interfaces), the blank var _ Sizer = Impl{}, the facade
// alias's exported methods, the harness package and, for the oracle's
// helper, the keep-list entry.
func TestFixtureRootRules(t *testing.T) {
	m := loadFixture(t)
	var got []string
	for _, d := range m.analyze(fixtureRules).unreached(map[string]bool{"internal/a.Oracle": true}) {
		got = append(got, d.key)
	}
	want := []string{
		"internal/a.Widget.Grow",
		"internal/a.Unused",
		"internal/a.Rand.Next",
		"internal/a.misses",
		"internal/a.Failure.Unwrap",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unreachable = %q, want %q", got, want)
	}
}

// TestFixtureKeepList checks the keep-list rules: a sound entry passes,
// and an entry that the roots or another entry reach, that is undeclared,
// or that is short of two test packages using it as an identifier fails,
// naming the entry.
func TestFixtureKeepList(t *testing.T) {
	m := loadFixture(t)
	sound := keepEntry{users: []string{"internal/a", "internal/b"}, reason: "oracle for the tests of a and b"}
	cases := []struct {
		name  string
		entry string
		e     keepEntry
		want  string // substring of the one extra message; "" for none
	}{
		{"sound", "internal/a.Oracle", sound, ""},
		{"reachable", "internal/a.Hits", sound, "internal/a/a.go:58: keep-list entry internal/a.Hits is reachable"},
		{"reached by another entry", "internal/a.oracleHelper", sound, "internal/a/a.go:64: keep-list entry internal/a.oracleHelper is reachable"},
		{"undeclared", "internal/a.Gone", sound, "keep-list entry internal/a.Gone is no longer declared"},
		{"one user", "internal/a.Oracle", keepEntry{users: []string{"internal/a"}, reason: "r"}, "needs a reason and two or more test packages"},
		{"user has no tests", "internal/a.Oracle", keepEntry{users: []string{"internal/a", "cmd/tool"}, reason: "r"}, "names test package cmd/tool, whose tests do not use Oracle"},
		{"user only comments on it", "internal/a.Oracle", keepEntry{users: []string{"internal/a", "internal/harness"}, reason: "r"}, "names test package internal/harness, whose tests do not use Oracle"},
		{"user calls a longer name", "internal/a.Oracle", keepEntry{users: []string{"internal/a", "internal/c"}, reason: "r"}, "names test package internal/c, whose tests do not use Oracle"},
	}
	for _, c := range cases {
		keep := map[string]keepEntry{"internal/a.Oracle": sound, c.entry: c.e}
		var msgs []string
		for _, msg := range check(m, fixtureRules, keep) {
			if !strings.Contains(msg, "is unreachable") {
				msgs = append(msgs, msg)
			}
		}
		switch {
		case c.want == "" && len(msgs) != 0:
			t.Errorf("%s: unexpected %q", c.name, msgs)
		case c.want != "" && (len(msgs) != 1 || !strings.Contains(msgs[0], c.want)):
			t.Errorf("%s: got %q, want one message containing %q", c.name, msgs, c.want)
		}
	}
}

// TestFixtureReportsUnreachable checks the messages name file:line.
func TestFixtureReportsUnreachable(t *testing.T) {
	m := loadFixture(t)
	msgs := check(m, fixtureRules, map[string]keepEntry{
		"internal/a.Oracle": {users: []string{"internal/a", "internal/b"}, reason: "oracle for the tests of a and b"},
	})
	if len(msgs) != 5 || !strings.HasPrefix(msgs[1], "internal/a/a.go:28: internal/a.Unused is unreachable") {
		t.Errorf("messages = %q", msgs)
	}
}
