package push_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/partition"
	"repro/internal/push"
)

// kInput is one grid of the K-processor equivalence table.
type kInput struct {
	speeds partition.Speeds
	n      int
	seed   int64
}

// kInputs spans K ∈ {2, 4, 5}, two speed lists each (3:3:2:1:1 ties the
// two fastest), at sizes on both sides of a 64-bit word boundary.
func kInputs() []kInput {
	lists := map[int][]partition.Speeds{
		2: {{3, 1}, {5, 1}},
		4: {{8, 4, 2, 1}, {4, 2, 1, 1}},
		5: {{8, 4, 2, 1, 1}, {3, 3, 2, 1, 1}},
	}
	var in []kInput
	for _, k := range []int{2, 4, 5} {
		for ni, n := range []int{20, 63, 64, 65, 130} {
			for v, s := range lists[k] {
				in = append(in, kInput{speeds: s, n: n, seed: int64(1000*k + 10*ni + v)})
			}
		}
	}
	return in
}

// drawRanks draws a random start by speed rank (0 = fastest) without the
// grid's own apportionment: every cell starts on rank 0, then each slower
// rank claims ⌊n²·speed/T⌋ cells at uniform random positions still on 0.
func drawRanks(n int, s partition.Speeds, rng *rand.Rand) []uint8 {
	cells := make([]uint8, n*n)
	t := s.T()
	for r := 1; r < len(s); r++ {
		for quota := int(float64(n*n) * s[r] / t); quota > 0; {
			idx := rng.Intn(n)*n + rng.Intn(n)
			if cells[idx] == 0 {
				cells[idx] = uint8(r)
				quota--
			}
		}
	}
	return cells
}

// rankProc is the grid processor of speed rank r among k: rank 0 is the
// fastest, Proc(k−1), and rank r ≥ 1 is Proc(r−1).
func rankProc(r, k int) partition.Proc { return partition.Proc((r + k - 1) % k) }

func loadRanks(n, k int, ranks []uint8) *partition.Grid {
	g := partition.NewGridK(n, k)
	for idx, r := range ranks {
		g.Set(idx/n, idx%n, rankProc(int(r), k))
	}
	return g
}

// rankFNV is the FNV-64a hash of the cells numbered by speed rank.
func rankFNV(g *partition.Grid) uint64 {
	n, k := g.N(), g.K()
	buf := make([]byte, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			buf[i*n+j] = byte((int(g.At(i, j)) + 1) % k)
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// TestKProcEquivalenceGolden pins the engine on grids of 2, 4 and 5
// processors. Each input drives a seeded sequence of single Attempts over
// random (processor, direction, type), the fastest processor included,
// and two full-plan condensations in fixed processor order, one of them
// cut short by a step cap. The golden file was recorded from the separate
// K-processor engine the unified one replaced, so it pins that the
// unified engine computes the same commits, moves, volumes and final
// cells.
func TestKProcEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("K-processor equivalence table")
	}
	var out bytes.Buffer
	for _, in := range kInputs() {
		k := len(in.speeds)
		rng := rand.New(rand.NewSource(in.seed))
		g := loadRanks(in.n, k, drawRanks(in.n, in.speeds, rng))
		const tries = 300
		commits, moved := 0, 0
		var dvoc int64
		for try := 0; try < tries; try++ {
			rank := rng.Intn(k)
			d := geom.AllDirections[rng.Intn(geom.NumDirections)]
			ty := push.AllTypes[rng.Intn(len(push.AllTypes))]
			res, ok := push.Attempt(g, rankProc(rank, k), d, ty, nil)
			if !ok {
				continue
			}
			if rank == 0 {
				t.Fatalf("k=%d n=%d: the fastest processor was pushed", k, in.n)
			}
			commits++
			moved += res.Moved
			dvoc += res.DeltaVoC
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "attempts k=%d n=%d speeds=%v seed=%d tries=%d: commits=%d moved=%d dvoc=%d voc=%d fnv=%016x\n",
			k, in.n, in.speeds, in.seed, tries, commits, moved, dvoc, g.VoC(), rankFNV(g))

		for _, maxSteps := range []int{40 * in.n * (k - 1), in.n / 2} {
			seed := in.seed + 500
			g := loadRanks(in.n, k, drawRanks(in.n, in.speeds, rand.New(rand.NewSource(seed))))
			voc0 := g.VoC()
			steps, converged := push.Condense(g, push.FullPlan(k), nil, maxSteps)
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "condense k=%d n=%d speeds=%v seed=%d max=%d: steps=%d converged=%t voc0=%d voc=%d fnv=%016x\n",
				k, in.n, in.speeds, seed, maxSteps, steps, converged, voc0, g.VoC(), rankFNV(g))
		}
	}

	path := filepath.Join("testdata", "kproc_equivalence.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("K-processor results differ from %s\n--- got ---\n%s--- want ---\n%s", path, out.Bytes(), want)
	}
}
