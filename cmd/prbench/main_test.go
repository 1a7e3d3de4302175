package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDefaultRunGolden builds prbench and compares the stdout of its
// full default run (E1–E15 at seed 42) with testdata/default.golden,
// which an earlier binary produced: every table must stay
// byte-identical unless a change means to alter it.
func TestDefaultRunGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the prbench binary")
	}
	bin := filepath.Join(t.TempDir(), "prbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("prbench: %v\n%s", err, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, w := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(w); i++ {
		var gl, wl string
		if i < len(got) {
			gl = got[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("line %d differs\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}
