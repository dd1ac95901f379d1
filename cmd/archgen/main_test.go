package main

import (
	"os"
	"testing"
)

// TestRunAll: -all writes the eight paper architectures and refuses a
// -fabric it would otherwise ignore.
func TestRunAll(t *testing.T) {
	dir := t.TempDir()
	if err := run(true, dir, "8x8:torus"); err == nil {
		t.Error("-all with -fabric accepted")
	}
	if err := run(true, dir, ""); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 {
		t.Errorf("-all wrote %d files, want 8", len(files))
	}
}
