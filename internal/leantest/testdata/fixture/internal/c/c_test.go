// Package c has tests only; they call a name that merely contains the
// name of a's oracle.
package c

import "testing"

func OracleLike() int { return 2 }

func TestOracleLike(t *testing.T) { _ = OracleLike() }
