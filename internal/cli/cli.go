// Package cli holds small flag-parsing helpers shared by the command-line
// tools.
package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Fatal prints "<command>: err" on stderr and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}

// ParseInts parses a comma-separated list of integers.
func ParseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cli: empty integer list")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("cli: bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated list of floats.
func ParseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cli: empty float list")
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("cli: bad float %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
