// Package harness is imported by tests only; its declarations are roots.
package harness

import "testing"

// Drive is a root.
func Drive(t testing.TB) {}
