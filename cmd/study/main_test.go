package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// small keeps each study to a few short DFA runs.
var small = []string{"-ratio", "5:2:1", "-n", "24", "-runs", "2"}

// TestUnknownTopologyExits2: a topology the spec grammar does not know is
// a usage error, reported with the parser's message, not a silent fully
// connected run.
func TestUnknownTopologyExits2(t *testing.T) {
	code, stdout, stderr := runCLI(t, append(small, "-topology", "ring")...)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stdout:\n%s", code, stdout)
	}
	if !strings.Contains(stderr, `unknown topology "ring"`) {
		t.Errorf("stderr %q does not carry the parser's message", stderr)
	}
	if stdout != "" {
		t.Errorf("a rejected run printed a report:\n%s", stdout)
	}
}

// TestTopologySpecReachesReport: a link-class spec prices the comparison
// and names itself in the candidate header; star and the "full" alias
// still run.
func TestTopologySpecReachesReport(t *testing.T) {
	for topo, header := range map[string]string{
		"3-island:10": "candidate VoC (3-island:10 topology)",
		"star":        "candidate VoC (star topology)",
		"full":        "candidate VoC (fully-connected topology)",
	} {
		code, stdout, stderr := runCLI(t, append(small, "-topology", topo)...)
		if code != 0 {
			t.Fatalf("-topology %s: exit %d: %s", topo, code, stderr)
		}
		if !strings.Contains(stdout, header) {
			t.Errorf("-topology %s: report misses %q:\n%s", topo, header, stdout)
		}
	}
}

// TestBadFlagsExit2: an unknown flag is a usage error.
func TestBadFlagsExit2(t *testing.T) {
	if code, _, _ := runCLI(t, "-nope"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
