package model

import (
	"errors"
	"testing"

	"repro/internal/partition"
)

func TestParseTopologySpecLegacy(t *testing.T) {
	for _, s := range []string{"", "fully-connected", "star"} {
		spec, err := ParseTopologySpec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		topo, legacy := spec.Legacy()
		if !legacy || spec.HasLinks() {
			t.Fatalf("%q parsed as non-legacy", s)
		}
		want := FullyConnected
		if s == "star" {
			want = Star
		}
		if topo != want {
			t.Fatalf("%q → %v, want %v", s, topo, want)
		}
		m := spec.Apply(DefaultMachine(partition.Ratio{Pr: 3, Rr: 2, Sr: 1}))
		if m.Cost != nil || m.Topology != want || m.Spec != "" {
			t.Fatalf("%q Apply: cost=%v topo=%v spec=%q", s, m.Cost, m.Topology, m.Spec)
		}
		if m.TopologyName() != want.String() {
			t.Fatalf("%q TopologyName = %q", s, m.TopologyName())
		}
	}
}

func TestParseTopologySpecNamedClasses(t *testing.T) {
	spec, err := ParseTopologySpec("2+1")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != "2+1:10" {
		t.Fatalf("canonical form %q, want 2+1:10", got)
	}
	mult := spec.Multipliers()
	if mult[partition.P][partition.R] != 1 || mult[partition.R][partition.P] != 1 {
		t.Fatalf("2+1 intra-node P↔R multipliers %v, want 1", mult)
	}
	for _, pair := range [][2]partition.Proc{
		{partition.P, partition.S}, {partition.S, partition.P},
		{partition.R, partition.S}, {partition.S, partition.R},
	} {
		if mult[pair[0]][pair[1]] != 10 {
			t.Fatalf("2+1 %v→%v multiplier %v, want 10", pair[0], pair[1], mult[pair[0]][pair[1]])
		}
	}

	// 3-island is the hierarchical fabric: links touching the head
	// island P pay the factor, the R↔S pair pays it squared.
	spec, err = ParseTopologySpec("3-island:25")
	if err != nil {
		t.Fatal(err)
	}
	mult = spec.Multipliers()
	for _, pair := range [][2]partition.Proc{
		{partition.P, partition.R}, {partition.R, partition.P},
		{partition.P, partition.S}, {partition.S, partition.P},
	} {
		if mult[pair[0]][pair[1]] != 25 {
			t.Fatalf("3-island:25 %v→%v multiplier %v, want 25", pair[0], pair[1], mult[pair[0]][pair[1]])
		}
	}
	if mult[partition.R][partition.S] != 625 || mult[partition.S][partition.R] != 625 {
		t.Fatalf("3-island:25 R↔S multipliers %v/%v, want 625 (second tier)",
			mult[partition.R][partition.S], mult[partition.S][partition.R])
	}
	// A factor whose square leaves the legal range is rejected up front.
	if _, err := ParseTopologySpec("3-island:1500"); err == nil {
		t.Fatal("3-island:1500 accepted; its R↔S tier multiplier exceeds the factor cap")
	}
}

func TestParseTopologySpecLinks(t *testing.T) {
	spec, err := ParseTopologySpec("links:PR=1,PS=10,RS=10")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.HasLinks() {
		t.Fatal("links spec parsed as legacy")
	}
	if got := spec.String(); got != "links:PR=1,PS=10,RS=10" {
		t.Fatalf("canonical form %q", got)
	}
	// Directed overrides: asymmetric entries survive the round trip.
	spec, err = ParseTopologySpec("links:PR=1,PS=10,R>S=4,S>R=2")
	if err != nil {
		t.Fatal(err)
	}
	mult := spec.Multipliers()
	if mult[partition.R][partition.S] != 4 || mult[partition.S][partition.R] != 2 {
		t.Fatalf("directed multipliers %v", mult)
	}
	re, err := ParseTopologySpec(spec.String())
	if err != nil {
		t.Fatalf("canonical %q did not re-parse: %v", spec.String(), err)
	}
	if re.Multipliers() != mult {
		t.Fatalf("round trip changed multipliers: %v vs %v", re.Multipliers(), mult)
	}
}

func TestParseTopologySpecErrors(t *testing.T) {
	bad := []string{
		"ring",                      // unknown name
		"2+1:",                      // empty factor
		"2+1:zero",                  // unparseable factor
		"2+1:-3",                    // negative factor
		"2+1:NaN",                   // NaN
		"2+1:Inf",                   // infinite
		"3-island:1e99",             // oversized factor
		"3-island:1e-99",            // vanishing factor
		"links:",                    // nothing priced
		"links:PR=1",                // missing pairs
		"links:PR=1,PS=1,RS=",       // empty value
		"links:PR=1,PS=1,RS=1,X=1",  // unknown pair
		"links:PR=1,PS=1,RS=1,PR=2", // duplicate
		"links:PP=1,PS=1,RS=1",      // self link
		"links:P>P=1,PS=1,RS=1",     // directed self link
		"links:PR=1,PS=1,R>S=1",     // S>R never priced
	}
	for _, s := range bad {
		_, err := ParseTopologySpec(s)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%q: error %v, want *ConfigError", s, err)
		}
	}
}

func TestTopologySpecApplyLinks(t *testing.T) {
	ratio := partition.Ratio{Pr: 5, Rr: 2, Sr: 1}
	spec, err := ParseTopologySpec("2+1:10")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultMachine(ratio)
	m := spec.Apply(base)
	lm := m.Cost
	if lm == nil {
		t.Fatal("Apply installed no link matrix")
	}
	if err := lm.Validate(); err != nil {
		t.Fatalf("applied matrix invalid: %v", err)
	}
	if got := lm.Links[partition.P][partition.R].Beta; got != base.Net.Beta {
		t.Fatalf("intra-node β %v, want base %v", got, base.Net.Beta)
	}
	if got := lm.Links[partition.P][partition.S].Beta; got != 10*base.Net.Beta {
		t.Fatalf("cross-node β %v, want 10× base", got)
	}
	if m.Ratio != ratio || m.FlopTime != base.FlopTime || m.Net != base.Net {
		t.Fatal("Apply changed the machine's own ratio, flop time or network")
	}
	if m.TopologyName() != "2+1:10" {
		t.Fatalf("TopologyName = %q", m.TopologyName())
	}
}

// FuzzParseTopologySpec feeds arbitrary wire strings at the parser: any
// outcome other than success or a typed *ConfigError (above all a panic)
// is a bug. Successful parses must produce a validatable matrix and a
// canonical form that round-trips.
func FuzzParseTopologySpec(f *testing.F) {
	for _, seed := range []string{
		"", "fully-connected", "star", "2+1", "2+1:3.5", "3-island:100",
		"links:PR=1,PS=10,RS=10", "links:P>R=1,R>P=2,PS=1,RS=1",
		"links:PR=-1,PS=NaN,RS=1e300", "2+1:-0", "links:PR=1,PS=1,RS=1,PR=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseTopologySpec(s)
		if err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("%q: untyped error %v", s, err)
			}
			return
		}
		m := spec.Apply(DefaultMachine(partition.Ratio{Pr: 3, Rr: 2, Sr: 1}))
		if spec.HasLinks() != (m.Cost != nil) {
			t.Fatalf("%q: HasLinks=%v but Apply installed matrix %v", s, spec.HasLinks(), m.Cost)
		}
		if m.Cost != nil {
			if err := m.Cost.Validate(); err != nil {
				t.Fatalf("%q: parsed spec applied to an invalid matrix: %v", s, err)
			}
		}
		canon := spec.String()
		re, err := ParseTopologySpec(canon)
		if err != nil {
			t.Fatalf("%q: canonical form %q rejected: %v", s, canon, err)
		}
		if re.String() != canon {
			t.Fatalf("%q: canonical form unstable: %q → %q", s, canon, re.String())
		}
	})
}
