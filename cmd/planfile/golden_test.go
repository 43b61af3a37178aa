package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file when -update is set:
//
//	go test ./cmd/planfile -run TestGolden -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenCreate pins the serialised plan artefact byte for byte: the
// chosen shape, the cost model numbers, the processor shares, and the
// base64 grid for a few representative scenarios. Any change to the
// planning pipeline's output format or decisions shows up as a golden
// diff instead of silently shifting what downstream runtimes consume.
func TestGoldenCreate(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"create_10_1_1_scb", []string{"-create", "-ratio", "10:1:1", "-alg", "SCB", "-n", "24"}},
		{"create_2_2_1_pcb", []string{"-create", "-ratio", "2:2:1", "-alg", "PCB", "-n", "24"}},
		{"create_5_2_1_sco_star", []string{"-create", "-ratio", "5:2:1", "-alg", "SCO", "-n", "24", "-topology", "star"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			checkGolden(t, tc.name, []byte(stdout))
		})
	}
}

// TestGoldenShow pins the human-readable rendering of a plan file,
// including the ASCII grid picture.
func TestGoldenShow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if code, _, stderr := runCLI(t, "-create", "-ratio", "10:1:1", "-alg", "SCB", "-n", "24", "-o", path); code != 0 {
		t.Fatalf("create exit %d: %s", code, stderr)
	}
	code, stdout, stderr := runCLI(t, "-show", path)
	if code != 0 {
		t.Fatalf("show exit %d: %s", code, stderr)
	}
	checkGolden(t, "show_10_1_1_scb", []byte(stdout))
}
