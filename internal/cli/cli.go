// Package cli holds small flag-parsing helpers shared by the command-line
// tools.
package cli

import (
	"fmt"
	"os"
	"path/filepath"
)

// Fatal prints "<command>: err" on stderr and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}
