package model

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/partition"
)

// allEqualLinkMatrix builds a LinkMatrix whose six links all carry h.
func allEqualLinkMatrix(h Hockney) *LinkMatrix {
	lm := &LinkMatrix{}
	for _, p := range partition.Procs {
		for _, q := range partition.Procs {
			if p != q {
				lm.Links[p][q] = h
			}
		}
	}
	return lm
}

// TestLinkMatrixUniformExact is the one-class property test: a LinkMatrix
// with all links equal must reproduce the nil-Cost evaluation on Net
// EXACTLY — same float64 bits, not approximately — for every algorithm
// and both legacy topologies, including the per-step α amortisation in
// PIO and the star relay. Price earns this by summing link-class volumes
// in int64 before any float arithmetic.
func TestLinkMatrixUniformExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nets := []Hockney{
		{Alpha: 0, Beta: 8.0 / 1e9},    // the default machine
		{Alpha: 1e-5, Beta: 3.7e-9},    // latency-dominant
		{Alpha: 4.2e-4, Beta: 1.1e-7},  // slow WAN-ish link
		{Alpha: 1.0 / 3.0, Beta: 1e-3}, // non-dyadic values
	}
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
		flop := 1.0 / 1e9
		legacy := Machine{Ratio: ratio, Net: net, FlopTime: flop}
		if trial%2 == 1 {
			legacy.Topology = Star
		}
		linked := legacy
		linked.Cost = allEqualLinkMatrix(net)
		linked.Net = Hockney{Alpha: 999, Beta: 999}
		for _, a := range AllAlgorithms {
			want := Evaluate(a, legacy, snap)
			got := Evaluate(a, linked, snap)
			if got != want {
				t.Fatalf("%v %v %v n=%d %s net=%+v:\n  legacy %+v\n  linked %+v",
					s, ratio, legacy.Topology, n, a, net, want, got)
			}
		}
	}
}

// TestLinkMatrixUniformWeights checks the weight normalisation: all-equal
// links yield the all-ones matrix, and scaling one link scales only its
// weight.
func TestLinkMatrixUniformWeights(t *testing.T) {
	lm := allEqualLinkMatrix(Hockney{Beta: 2e-9})
	if w := lm.Weights(); !w.Uniform() {
		t.Fatalf("all-equal LinkMatrix weights = %v, want uniform", w)
	}
	lm.Links[partition.R][partition.S].Beta *= 10
	w := lm.Weights()
	if w[partition.R][partition.S] != 10 {
		t.Fatalf("w[R][S] = %v, want 10", w[partition.R][partition.S])
	}
	if w[partition.S][partition.R] != 1 {
		t.Fatalf("w[S][R] = %v, want 1", w[partition.S][partition.R])
	}
}

// TestLinkMatrixAsymmetric checks that an asymmetric matrix actually
// prices the two directions differently: making R→S expensive while S→R
// stays cheap must raise exactly R's parallel send time.
func TestLinkMatrixAsymmetric(t *testing.T) {
	ratio := partition.Ratio{Pr: 5, Rr: 2, Sr: 1}
	g, err := partition.Build(partition.BlockRectangle, 32, ratio)
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	base := allEqualLinkMatrix(Hockney{Beta: 1e-9})
	asym := allEqualLinkMatrix(Hockney{Beta: 1e-9})
	asym.Links[partition.R][partition.S].Beta *= 100
	if snap.PairSends[partition.R][partition.S] == 0 {
		t.Fatal("test shape has no R→S traffic; pick another")
	}
	sendTime := func(lm *LinkMatrix, p partition.Proc) float64 {
		var v VolumeTable
		v[p] = snap.PairSends[p]
		return Machine{Cost: lm}.Price(&v, 1)
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
	fast, slow := Hockney{Alpha: 1, Beta: 2}, Hockney{Alpha: 10, Beta: 20}
	lm := allEqualLinkMatrix(fast)
	lm.Links[partition.R][partition.S] = slow
	lm.Links[partition.S][partition.R] = slow
	m := Machine{Cost: lm}
	var v VolumeTable
	v[partition.P][partition.R] = 3
	v[partition.S][partition.P] = 5
	v[partition.R][partition.S] = 7
	v[partition.S][partition.R] = 1
	if got, want := m.Price(&v, 1), fast.Time(8)+slow.Time(8); got != want {
		t.Fatalf("bulk price %v, want %v (one message per class)", got, want)
	}
	if got, want := m.Price(&v, 4), (1+2*8.0/4)+(10+20*8.0/4); got != want {
		t.Fatalf("4-step price %v, want %v (α every round, β spread)", got, want)
	}
	if got := m.Price(&VolumeTable{}, 1); got != 0 {
		t.Fatalf("price of no traffic = %v, want 0", got)
	}
}

func TestLinkMatrixValidate(t *testing.T) {
	good := allEqualLinkMatrix(Hockney{Alpha: 1e-6, Beta: 2e-9})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*LinkMatrix)
	}{
		{"negative beta", func(lm *LinkMatrix) { lm.Links[partition.P][partition.R].Beta = -1 }},
		{"zero beta", func(lm *LinkMatrix) { lm.Links[partition.R][partition.S].Beta = 0 }},
		{"nan beta", func(lm *LinkMatrix) { lm.Links[partition.S][partition.P].Beta = nan() }},
		{"inf beta", func(lm *LinkMatrix) { lm.Links[partition.S][partition.R].Beta = inf() }},
		{"negative alpha", func(lm *LinkMatrix) { lm.Links[partition.P][partition.S].Alpha = -1e-9 }},
		{"nan alpha", func(lm *LinkMatrix) { lm.Links[partition.R][partition.P].Alpha = nan() }},
	}
	for _, tc := range cases {
		lm := allEqualLinkMatrix(Hockney{Alpha: 1e-6, Beta: 2e-9})
		tc.mutate(lm)
		err := lm.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error %v, want *ConfigError", tc.name, err)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// TestPushWeights: the push engine gets weights only from a link matrix
// whose β differ; a nil or all-equal matrix keeps the integer VoC path.
func TestPushWeights(t *testing.T) {
	m := DefaultMachine(partition.MustRatio(5, 2, 1))
	if w := m.PushWeights(); w != nil {
		t.Fatalf("nil Cost: weights %v, want nil", w)
	}
	m.Cost = allEqualLinkMatrix(m.Net)
	if w := m.PushWeights(); w != nil {
		t.Fatalf("all-equal matrix: weights %v, want nil", w)
	}
	spec, err := ParseTopologySpec("2+1:10")
	if err != nil {
		t.Fatal(err)
	}
	w := spec.Apply(m).PushWeights()
	if w == nil || w[partition.P][partition.S] != 10 || w[partition.P][partition.R] != 1 {
		t.Fatalf("2+1:10 weights %v, want P↔R 1 and links touching S 10", w)
	}
}
