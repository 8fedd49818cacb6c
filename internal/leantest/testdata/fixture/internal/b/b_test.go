package b

import (
	"testing"

	"fixture/internal/a"
)

func TestOracle(t *testing.T) { _ = a.Oracle() }
