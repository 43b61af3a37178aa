package model

import (
	"math/rand"
	"testing"

	"repro/internal/partition"
)

// mustTopology parses a topology spec a test names literally.
func mustTopology(tb testing.TB, s string) TopologySpec {
	tb.Helper()
	spec, err := ParseTopologySpec(s)
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// allOnesLinks is the link spec whose six multipliers are all 1: every
// link carries the base network, priced through the link path.
const allOnesLinks = "links:PR=1,PS=1,RS=1"

// TestLinkMatrixUniformExact is the one-class property test: the all-ones
// link spec must reproduce the fully-connected evaluation on Net EXACTLY —
// same float64 bits, not approximately — for every algorithm, including
// the per-step α amortisation in PIO. Price earns this by summing
// link-class volumes in int64 before any float arithmetic, and β·1 is β.
// Star relays through P and takes no multipliers, so its rows have no
// link-spec twin.
func TestLinkMatrixUniformExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nets := []Hockney{
		{Alpha: 0, Beta: 8.0 / 1e9},    // the default machine
		{Alpha: 1e-5, Beta: 3.7e-9},    // latency-dominant
		{Alpha: 4.2e-4, Beta: 1.1e-7},  // slow WAN-ish link
		{Alpha: 1.0 / 3.0, Beta: 1e-3}, // non-dyadic values
	}
	ones := mustTopology(t, allOnesLinks)
	for trial := 0; trial < 60; trial++ {
		ratio := partition.PaperRatios[rng.Intn(len(partition.PaperRatios))]
		n := 8 + rng.Intn(64)
		s := partition.AllShapes[rng.Intn(partition.NumShapes)]
		g, err := partition.Build(s, n, ratio)
		if err != nil {
			continue
		}
		snap := g.Snapshot()
		net := nets[rng.Intn(len(nets))]
		legacy := Machine{Ratio: ratio, Net: net, FlopTime: 1.0 / 1e9}
		linked := ones.Apply(legacy)
		for _, a := range AllAlgorithms {
			want := Evaluate(a, legacy, snap)
			got := Evaluate(a, linked, snap)
			if got != want {
				t.Fatalf("%v %v n=%d %s net=%+v:\n  fully connected %+v\n  all-ones links  %+v",
					s, ratio, n, a, net, want, got)
			}
		}
	}
}

// TestLinkMatrixAsymmetric checks that a directed link spec actually
// prices the two directions differently: making R→S expensive while S→R
// stays cheap must raise exactly R's parallel send time.
func TestLinkMatrixAsymmetric(t *testing.T) {
	ratio := partition.Ratio{Pr: 5, Rr: 2, Sr: 1}
	g, err := partition.Build(partition.BlockRectangle, 32, ratio)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	if snap.PairSends[partition.R][partition.S] == 0 {
		t.Fatal("test shape has no R→S traffic; pick another")
	}
	net := Hockney{Beta: 1e-9}
	base := mustTopology(t, allOnesLinks)
	asym := mustTopology(t, "links:PR=1,PS=1,R>S=100,S>R=1")
	sendTime := func(spec TopologySpec, p partition.Proc) float64 {
		var v VolumeTable
		v[p] = snap.PairSends[p]
		m := Machine{Net: net, Topology: spec}
		return m.Price(&v, 1)
	}
	if got, want := sendTime(asym, partition.R), sendTime(base, partition.R); got <= want {
		t.Fatalf("R send time %v not raised above %v by 100× R→S link", got, want)
	}
	if got, want := sendTime(asym, partition.S), sendTime(base, partition.S); got != want {
		t.Fatalf("S send time changed (%v vs %v) though only R→S was repriced", got, want)
	}
}

// TestPriceClasses pins Price's grouping: links with equal (α, β) share
// one message per round whatever their direction, and each further class
// pays its own latency.
func TestPriceClasses(t *testing.T) {
	fast := Hockney{Alpha: 1, Beta: 2}
	slow := Hockney{Alpha: 1, Beta: 20}
	m := Machine{Net: fast, Topology: mustTopology(t, "links:PR=1,PS=1,RS=10")}
	var v VolumeTable
	v[partition.P][partition.R] = 3
	v[partition.S][partition.P] = 5
	v[partition.R][partition.S] = 7
	v[partition.S][partition.R] = 1
	if got, want := m.Price(&v, 1), fast.Time(8)+slow.Time(8); got != want {
		t.Fatalf("bulk price %v, want %v (one message per class)", got, want)
	}
	if got, want := m.Price(&v, 4), (1+2*8.0/4)+(1+20*8.0/4); got != want {
		t.Fatalf("4-step price %v, want %v (α every round, β spread)", got, want)
	}
	if got := m.Price(&VolumeTable{}, 1); got != 0 {
		t.Fatalf("price of no traffic = %v, want 0", got)
	}
}
