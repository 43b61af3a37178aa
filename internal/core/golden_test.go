package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestStudyWriteGolden pins Study.Write byte for byte for one small study
// per legacy topology: the census counts, the reduction, every
// candidate's VoC and the winner per algorithm (-update to regenerate).
func TestStudyWriteGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec string
	}{
		{"full", ""},
		{"star", "star"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := model.ParseTopologySpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Run(StudyConfig{
				N:        40,
				Ratio:    partition.MustRatio(5, 2, 1),
				Runs:     8,
				Seed:     1,
				Topology: spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := st.Write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "study_5_2_1_"+tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update first): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("study report diverged from %s:\n%s", path, buf.Bytes())
			}
		})
	}
}
