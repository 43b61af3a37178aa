package partition

import (
	"fmt"
	"io"
	"strings"
)

// RenderASCII draws the partition at reduced granularity, the way Fig 7
// presents the example run: the grid is divided into boxes×boxes squares
// and each box is drawn with the glyph of its majority owner (see
// majority). The fastest processor draws as '.'; on a three-processor
// grid R and S draw as 'R' and 'S', on any other the slower processors
// draw as their speed rank '1'…'9'.
func (g *Grid) RenderASCII(boxes int) string {
	var b strings.Builder
	g.renderTo(&b, boxes)
	return b.String()
}

func (g *Grid) renderTo(w io.Writer, boxes int) {
	if boxes <= 0 || boxes > g.n {
		boxes = g.n
	}
	var glyph [MaxProcs]byte
	for p := range g.k - 1 {
		glyph[p] = byte('1' + p)
	}
	if g.k == NumProcs {
		glyph[R], glyph[S] = 'R', 'S'
	}
	glyph[g.Fastest()] = '.'
	line := make([]byte, boxes+1)
	line[boxes] = '\n'
	for bi := 0; bi < boxes; bi++ {
		for bj := 0; bj < boxes; bj++ {
			line[bj] = glyph[g.majority(boxes, bi, bj)]
		}
		if _, err := w.Write(line); err != nil {
			return
		}
	}
}

// Downsample returns a boxes×boxes grid in which each cell holds the
// majority owner (see majority) of the corresponding block of g — the
// same reduction the paper uses to present partitions at 1/100th
// granularity (Fig 7).
func (g *Grid) Downsample(boxes int) *Grid {
	if boxes <= 0 || boxes > g.n {
		boxes = g.n
	}
	out := NewGridK(boxes, g.k)
	for bi := 0; bi < boxes; bi++ {
		for bj := 0; bj < boxes; bj++ {
			out.Set(bi, bj, g.majority(boxes, bi, bj))
		}
	}
	return out
}

// majority returns the processor owning the most cells of box (bi, bj)
// when the grid is cut into boxes×boxes boxes. A tie goes to a slower
// processor over the fastest, so small regions never vanish from the
// picture, and between slower processors to the faster: R over S over P
// on a three-processor grid.
func (g *Grid) majority(boxes, bi, bj int) Proc {
	var tally [MaxProcs]int
	for i := bi * g.n / boxes; i < (bi+1)*g.n/boxes; i++ {
		for j := bj * g.n / boxes; j < (bj+1)*g.n/boxes; j++ {
			tally[g.At(i, j)]++
		}
	}
	best := g.Fastest()
	for p := range g.Fastest() {
		if tally[p] > tally[best] || (tally[p] == tally[best] && best == g.Fastest()) {
			best = p
		}
	}
	return best
}

// WritePGM writes a three-processor partition as a binary PGM image (one
// pixel per cell; P=white, R=gray, S=black), matching the paper's
// white/gray/black figure convention. It panics on any other processor
// count.
func (g *Grid) WritePGM(w io.Writer) error {
	g.mustBeThree("WritePGM")
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", g.n, g.n); err != nil {
		return err
	}
	shade := [NumProcs]byte{P: 255, R: 160, S: 0}
	row := make([]byte, g.n)
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			row[j] = shade[g.At(i, j)]
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// Encode serialises a three-processor grid into a compact byte form (size
// header plus one byte per cell) that Decode restores exactly. It panics
// on any other processor count, which the format does not record.
func (g *Grid) Encode() []byte {
	g.mustBeThree("Encode")
	buf := make([]byte, 4+len(g.cells))
	buf[0] = byte(g.n >> 24)
	buf[1] = byte(g.n >> 16)
	buf[2] = byte(g.n >> 8)
	buf[3] = byte(g.n)
	for i, p := range g.cells {
		buf[4+i] = byte(p)
	}
	return buf
}

// Decode restores a three-processor grid from Encode's output.
func Decode(buf []byte) (*Grid, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("partition: decode: truncated header")
	}
	n := int(buf[0])<<24 | int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
	if n <= 0 || len(buf) != 4+n*n {
		return nil, fmt.Errorf("partition: decode: bad length %d for n=%d", len(buf), n)
	}
	g := NewGrid(n)
	for idx, b := range buf[4:] {
		p := Proc(b)
		if !p.Valid() {
			return nil, fmt.Errorf("partition: decode: invalid processor %d at cell %d", b, idx)
		}
		g.Set(idx/n, idx%n, p)
	}
	return g, nil
}
