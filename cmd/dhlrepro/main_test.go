package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// committedOut is the repository's recorded artefact directory.
var committedOut = filepath.Join("..", "..", "out")

func fileNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestArtefactsMatchCommittedOut regenerates every artefact into a fresh
// directory and byte-compares it with the committed out/, so a change that
// moves a paper number, or a stale committed artefact, fails here. Re-record
// with `go run ./cmd/dhlrepro` and explain each difference.
func TestArtefactsMatchCommittedOut(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, want := fileNames(t, dir), fileNames(t, committedOut)
	if !slices.Equal(got, want) {
		t.Fatalf("artefacts = %v, committed out/ = %v", got, want)
	}
	for _, name := range got {
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(committedOut, name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(g, w) {
			continue
		}
		gl, wl := strings.Split(string(g), "\n"), strings.Split(string(w), "\n")
		for i := range max(len(gl), len(wl)) {
			var a, b string
			if i < len(gl) {
				a = gl[i]
			}
			if i < len(wl) {
				b = wl[i]
			}
			if a != b {
				t.Errorf("%s line %d:\n got  %q\n want %q", name, i+1, a, b)
				break
			}
		}
	}
}
