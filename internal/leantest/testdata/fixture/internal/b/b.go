// Package b is a package whose tests call a's oracle.
package b
