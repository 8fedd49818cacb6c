package a

import "testing"

func TestOracle(t *testing.T) { _ = Oracle() }
