package harness

import "testing"

// TestDrive does not call a.Oracle; this comment only names it.
func TestDrive(t *testing.T) {
	Drive(t)
	t.Log("Oracle")
}
