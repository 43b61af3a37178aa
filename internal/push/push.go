// Package push implements the paper's primary contribution: the three-
// processor Push operation (Section IV-A) and the computer-aided search
// program built on it (Sections V–VI). The engine reads the processor
// count K from the grid, so the same Push and search run on any K the
// grid holds (the §XI extension): every processor but the fastest is
// pushed, and it may displace any other processor.
//
// A Push is an atomic transformation of a partition shape q into q₁ that
// cleans one edge row/column of the active processor's enclosing rectangle,
// relocating the active processor's elements deeper into its rectangle and
// handing the displaced elements' owners the vacated edge cells. Six Push
// types (Section IV-A.1–6) impose progressively weaker occupancy
// constraints; all of them guarantee the Volume of Communication (Eq 1)
// never increases — types 1–4 strictly decrease it, types 5–6 leave it
// unchanged at worst. The engine enforces this guarantee mechanically: a
// tentative Push whose recomputed ΔVoC violates its type's contract is
// rolled back and reported illegal, as is one that enlarges any
// processor's enclosing rectangle.
package push

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/geom"
	"repro/internal/partition"
)

// Type identifies one of the six Push legality regimes of Section IV-A.
type Type uint8

const (
	// TypeOne strictly decreases VoC: the active processor lands only in
	// rows/columns it already occupies, and the displaced processor must
	// already occupy the cleaned row and the receiving column.
	TypeOne Type = 1 + iota
	// TypeTwo strictly decreases VoC but lets the active processor dirty
	// l fresh rows/columns provided at least l are cleaned; the displaced
	// processor constraint stays strict.
	TypeTwo
	// TypeThree strictly decreases VoC with the strict placement rule but
	// a relaxed displaced-processor rule.
	TypeThree
	// TypeFour strictly decreases VoC with both rules relaxed.
	TypeFour
	// TypeFive leaves VoC unchanged at worst; at most one fresh
	// row/column may be dirtied; strict displaced-processor rule.
	TypeFive
	// TypeSix leaves VoC unchanged at worst with both rules relaxed.
	TypeSix
)

// AllTypes lists the types in the order the search program tries them:
// strongest (guaranteed progress) first.
var AllTypes = []Type{TypeOne, TypeTwo, TypeThree, TypeFour, TypeFive, TypeSix}

func (t Type) String() string {
	if t >= TypeOne && t <= TypeSix {
		return fmt.Sprintf("Type%d", uint8(t))
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// params returns (dirtyLimit, ownerStrict, strictDecrease) for each type.
//   - dirtyLimit: how many rows/columns not previously containing the
//     active processor its elements may move into (-1 = unlimited, the
//     net effect being guarded by the ΔVoC contract);
//   - ownerStrict: whether the displaced processor must already occupy the
//     cleaned row and the receiving column;
//   - strictDecrease: whether the committed Push must strictly lower VoC.
func (t Type) params() (dirtyLimit int, ownerStrict, strictDecrease bool) {
	switch t {
	case TypeOne:
		return 0, true, true
	case TypeTwo:
		return -1, true, true
	case TypeThree:
		return 0, false, true
	case TypeFour:
		return -1, false, true
	case TypeFive:
		return 1, true, false
	case TypeSix:
		return -1, false, false
	}
	panic("push: invalid type")
}

// Result describes a committed Push.
type Result struct {
	Active   partition.Proc
	Dir      geom.Direction
	Type     Type
	Moved    int   // elements of the active processor relocated
	DeltaVoC int64 // VoC(q₁) − VoC(q), never positive
}

// AcceptFunc lets the caller veto a fully-formed Push just before it
// commits (the DFA runner uses this to break VoC-plateau cycles). The grid
// passed in is the tentative post-Push state; returning false rolls the
// Push back.
type AcceptFunc func(g *partition.Grid) bool

// vgrid adapts a Grid to the logical coordinate system of a View, in which
// every Push is a Push Down: the cleaned edge is the logical top row of
// the active processor's enclosing rectangle and elements move to higher
// logical rows.
type vgrid struct {
	g *partition.Grid
	v geom.View
}

func (vg vgrid) set(i, j int, p partition.Proc) {
	pi, pj := vg.v.Apply(i, j)
	vg.g.Set(pi, pj, p)
}

func (vg vgrid) rect(p partition.Proc) geom.Rect {
	return vg.v.InvertRect(vg.g.EnclosingRect(p))
}

// undoLog records logical-cell mutations for rollback.
type undoLog struct {
	cells []undoCell
}

type undoCell struct {
	i, j int
	prev partition.Proc
}

func (u *undoLog) record(i, j int, prev partition.Proc) {
	u.cells = append(u.cells, undoCell{i, j, prev})
}

func (u *undoLog) rollback(vg vgrid) {
	for k := len(u.cells) - 1; k >= 0; k-- {
		c := u.cells[k]
		vg.set(c.i, c.j, c.prev)
	}
	u.cells = u.cells[:0]
}

// cursor is a monotone scan position over the interior rows of an
// enclosing rectangle (everything strictly below the cleaned edge).
type cursor struct {
	g, h   int
	bounds geom.Rect
}

func newCursor(rect geom.Rect) cursor {
	return cursor{g: rect.Top + 1, h: rect.Left, bounds: rect}
}

// undoPool recycles undo logs across Attempt calls: the log's backing
// array survives between attempts, so the hot path stops allocating per
// probe.
var undoPool = sync.Pool{New: func() any { return new(undoLog) }}

// outcome says how an attempt ended. AttemptAny reads it to skip a type
// whose placement is already known to fail.
type outcome uint8

const (
	committed       outcome = iota
	placementFailed         // an edge element found no slot, or the placement raised VoC
	refused                 // nothing to push, or ΔVoC = 0 under a strict type, the rectangle rule or accept refused it
)

// span returns the bits of word k of a bit set that fall in [lo, hi).
func span(k, lo, hi int) uint64 {
	m := ^uint64(0)
	if k == lo>>6 {
		m <<= lo & 63
	}
	if k == (hi-1)>>6 {
		m &= ^uint64(0) >> (63 - (hi-1)&63)
	}
	return m
}

// Attempt tries a single Push of the given type on the active processor in
// the given direction. On success the grid is mutated and the Result
// describes the transformation; on failure the grid is untouched.
//
// accept may be nil; when non-nil it can veto the Push (see AcceptFunc).
func Attempt(g *partition.Grid, active partition.Proc, dir geom.Direction, t Type, accept AcceptFunc) (Result, bool) {
	res, out := attempt(g, active, dir, t, accept)
	return res, out == committed
}

// attempt is Attempt, reporting how the attempt ended.
func attempt(g *partition.Grid, active partition.Proc, dir geom.Direction, t Type, accept AcceptFunc) (Result, outcome) {
	np := g.K()
	if int(active) >= np-1 {
		// Only the slower processors are ever pushed (Section VI-C: a
		// partition is condensed when no processor except the largest
		// may be moved).
		return Result{}, refused
	}
	dirtyLimit, ownerStrict, strictDecrease := t.params()

	n := g.N()
	v := geom.NewView(n, dir)
	activeRectBefore := g.EnclosingRect(active)
	rect := v.InvertRect(activeRectBefore)
	if rect.IsEmpty() || rect.Height() < 2 {
		// Nothing to clean, or no rows below the edge to receive elements.
		return Result{}, refused
	}

	// Resolve the view once: the physical line of logical row i is
	// fa·i + fb, and logical column h is position h along that line (a
	// transpose makes the lines physical columns; a flip only remaps line
	// indices — geom.View composes at most one transpose with one vertical
	// flip and never flips columns).
	fa, fb := 1, 0
	if v.Flipped() {
		fa, fb = -1, n-1
	}

	// Raw counter slices, pre-swapped into logical orientation: lrc answers
	// "count of p in logical row i" at lrc[(fa·i+fb)·K + p], and lrp has
	// bit p of lrp[fa·i+fb] set iff that row holds p; lcp answers the
	// column question at lcp[j].
	_, rawRowCnt, rawColCnt := g.Raw()
	rowProcs, colProcs := g.LineProcs()
	lrc, lrp, lcp := rawRowCnt, rowProcs, colProcs
	if v.Transposed() {
		lrc, lrp, lcp = rawColCnt, colProcs, rowProcs
	}
	ai := int(active)

	top := rect.Top
	topLine := fa*top + fb
	topBase := topLine * np

	// O(1) rejection: every cell the active processor owns lies inside its
	// enclosing rectangle, so interior slots exist only if the interior
	// holds cells of other processors. A fully condensed (solid-rectangle)
	// region has none, and every Push type fails without any scan — this is
	// the common case once the search nears a fixed point.
	edgeActive := int(lrc[topBase+ai])
	interior := (rect.Height() - 1) * rect.Width()
	if interior == g.Count(active)-edgeActive {
		return Result{}, refused
	}

	// The processors the active one may displace, as a set of processor
	// bits: every other slow one (slowOthers) and the fastest.
	fastest := int(g.Fastest())
	slowOthers := (uint(1)<<fastest - 1) &^ (1 << ai)
	others := slowOthers | 1<<fastest

	// Bit sets in logical orientation: act[L·W+k] is word k of line L's
	// active cells, oth[q] likewise for each slow q in slowOthers, and
	// colAct has bit h set iff logical column h holds the active
	// processor. The fastest owns the complement of all slow cells. The
	// slot search ANDs and ORs W = ⌈N/64⌉ words per row.
	actByRow, actByCol := g.CellBits(active)
	lineRows, lineCols := g.LineBits(active)
	act, colAct := actByRow, lineCols
	if v.Transposed() {
		act, colAct = actByCol, lineRows
	}
	var oth [partition.MaxProcs - 1][]uint64
	for x := slowOthers; x != 0; x &= x - 1 {
		q := bits.TrailingZeros(x)
		byRow, byCol := g.CellBits(partition.Proc(q))
		oth[q] = byRow
		if v.Transposed() {
			oth[q] = byCol
		}
	}
	words := len(colAct)

	// Snapshot the invariant inputs.
	vocBefore := g.VoC()
	vg := vgrid{g: g, v: v}
	undo := undoPool.Get().(*undoLog)
	defer func() {
		undo.cells = undo.cells[:0]
		undoPool.Put(undo)
	}()
	moved := 0
	dirtied := 0

	// Three monotone placement cursors, in the spirit of the paper's
	// findTypeOne pseudocode (the search resumes from the last accepted
	// slot, making a whole Push O(area of the enclosing rectangle)).
	// Tiers, tried in order per edge element:
	//
	//   A (strict)  — the active processor lands where it dirties nothing
	//     and the displaced processor already occupies both the cleaned
	//     line and the receiving line: a Type-One-legal elementary swap
	//     that can never raise VoC.
	//   B (amortised) — the displaced processor occupies the receiving
	//     line but perhaps not the cleaned line. The first such swap
	//     dirties the cleaned line once; because legality is evaluated on
	//     the evolving grid, every later swap displacing the same
	//     processor is tier-A. Only meaningful for the relaxed-owner
	//     types (3, 4, 6).
	//   C (typed)   — this type's literal rules.
	//
	// Preferring cheaper tiers keeps the relaxed types from squandering
	// their ΔVoC budget on placements a clean slot could have served,
	// which is what lets the search condense speckled regions instead of
	// declaring them stuck.
	curA := newCursor(rect)
	curB := newCursor(rect)
	curC := newCursor(rect)

	const (
		tierStrict = iota
		tierAmortised
		tierTyped
	)
	width := rect.Width()

	// place moves the edge element at logical (top, j) into the first slot
	// from cur, in logical row-major order, that the tier accepts.
	place := func(j int, cur *cursor, tier int) bool {
		// owners is the set of processors that may be displaced from the
		// slot under this tier and edge column j: the owner-side legality.
		// The displaced processor must occupy the receiving column in tiers
		// A and B and under a strict owner rule, and the cleaned row in
		// tier A and under a strict owner rule. The set is stable for the
		// whole call, since placements mutate the grid only on success,
		// which returns immediately.
		owners := others
		if tier != tierTyped || ownerStrict {
			owners &= uint(lcp[j])
		}
		if tier == tierStrict || (tier == tierTyped && ownerStrict) {
			owners &= uint(lrp[topLine])
		}
		// No displaceable processor qualifies: every remaining cell would
		// be rejected, so exhausting the cursor in O(1) is exact.
		if owners == 0 {
			cur.g, cur.h = cur.bounds.Bottom, cur.bounds.Left
			return false
		}

		// needClean: this tier only accepts placements with willDirty == 0
		// (tiers A and B always; tier C when the type's dirty budget is 0).
		needClean := tier != tierTyped || dirtyLimit == 0
		// Rows the active processor does not occupy cost at least one fresh
		// line; when the budget cannot absorb that, skip them whole. dirtied
		// is frozen for the duration of one place call.
		skipEmptyRows := needClean || (dirtyLimit >= 0 && dirtied+1 > dirtyLimit)

		// A slot word is the OR of the cell bit sets of the slow
		// processors in mix when the fastest may not be displaced, mix
		// holding the slow ones that may be, and the complement of the
		// active cells and the mix when it may, mix holding those that may
		// not.
		mayFastest := owners>>fastest&1 != 0
		mix := owners
		if mayFastest {
			mix = slowOthers &^ owners
		}

		cg, ch := cur.g, cur.h
		bottom, left, right := cur.bounds.Bottom, cur.bounds.Left, cur.bounds.Right
		for ; cg < bottom; cg, ch = cg+1, left {
			line := fa*cg + fb
			base := line * np
			// A row whose every in-rectangle cell is already active has no
			// slot, and neither has one without a qualifying owner. (All of
			// the active processor's cells lie inside its enclosing
			// rectangle, so the line count equals the in-rectangle count.)
			rowActive := int(lrc[base+ai])
			if rowActive == width || (rowActive == 0 && skipEmptyRows) || uint(lrp[line])&owners == 0 {
				continue
			}
			rowDirt := 0
			if rowActive == 0 {
				rowDirt = 1
			}
			// needCol: the slot's column must already hold the active
			// processor — for a clean placement, and under a dirt budget
			// that this row's own fresh line (if any) exhausts. With
			// budget to spare, or none at all, any column will do.
			needCol := needClean || (dirtyLimit > 0 && dirtied+rowDirt == dirtyLimit)
			off := line * words
			for k := ch >> 6; k <= (right-1)>>6; k++ {
				var m uint64
				for x := mix; x != 0; x &= x - 1 {
					m |= oth[bits.TrailingZeros(x)][off+k]
				}
				if mayFastest {
					m = ^(act[off+k] | m)
				}
				m &= span(k, ch, right)
				if needCol {
					m &= colAct[k]
				}
				if m == 0 {
					continue
				}
				b := bits.TrailingZeros64(m)
				h := k*64 + b
				owner := partition.Proc(fastest)
				for x := slowOthers & owners; x != 0; x &= x - 1 {
					if q := bits.TrailingZeros(x); oth[q][off+k]>>b&1 != 0 {
						owner = partition.Proc(q)
						break
					}
				}
				willDirty := rowDirt
				if colAct[k]>>b&1 == 0 {
					willDirty++
				}
				undo.record(top, j, active)
				undo.record(cg, h, owner)
				vg.set(top, j, owner)
				vg.set(cg, h, active)
				dirtied += willDirty
				moved++
				if h+1 < right {
					cur.g, cur.h = cg, h+1
				} else {
					cur.g, cur.h = cg+1, left
				}
				return true
			}
		}
		cur.g, cur.h = cg, ch
		return false
	}

	// The edge elements in column order. Placements change only the edge
	// cell being placed and interior rows, so a word of the edge line read
	// before its elements are placed stays exact.
	edge := act[topLine*words : (topLine+1)*words]
	for k := rect.Left >> 6; k <= (rect.Right-1)>>6; k++ {
		for x := edge[k] & span(k, rect.Left, rect.Right); x != 0; x &= x - 1 {
			j := k*64 + bits.TrailingZeros64(x)
			if place(j, &curA, tierStrict) {
				continue
			}
			if !ownerStrict && place(j, &curB, tierAmortised) {
				continue
			}
			if !place(j, &curC, tierTyped) {
				undo.rollback(vg)
				return Result{}, placementFailed
			}
		}
	}

	if moved == 0 {
		// Edge row held no elements of the active processor: the
		// enclosing rectangle metadata would say otherwise, so this can
		// only happen for height-1 rectangles already excluded; treat as
		// no-op failure for safety.
		return Result{}, refused
	}

	// Contract checks on the committed state.
	delta := g.VoC() - vocBefore
	if delta > 0 {
		undo.rollback(vg)
		return Result{}, placementFailed
	}
	if strictDecrease && delta == 0 {
		undo.rollback(vg)
		return Result{}, refused
	}
	// "A Push may not enlarge the enclosing rectangle of any processor"
	// (Section IV-A). For the active processor this is enforced
	// structurally — all placements stay inside its rectangle — and
	// checked here. For the displaced processors Types 3/4/6 explicitly
	// allow occupying previously-clean rows/columns (which can stretch
	// their rectangles) as long as more rows/columns are cleaned than
	// dirtied; that net effect is exactly the ΔVoC contract above, so no
	// separate geometric veto is applied to them.
	if !activeRectBefore.ContainsRect(g.EnclosingRect(active)) {
		undo.rollback(vg)
		return Result{}, refused
	}
	if accept != nil && !accept(g) {
		undo.rollback(vg)
		return Result{}, refused
	}
	return Result{Active: active, Dir: dir, Type: t, Moved: moved, DeltaVoC: delta}, committed
}

// AttemptAny tries the types in order on (active, dir) and commits the
// first legal Push.
//
// Types Four and Six place with the same dirt budget and owner rule and
// differ only in their ΔVoC contract, and a failed type leaves the grid as
// it was. So once one of them found no slot or raised VoC, the other would
// make the same placement and fail the same way, and it is skipped.
func AttemptAny(g *partition.Grid, active partition.Proc, dir geom.Direction, types []Type, accept AcceptFunc) (Result, bool) {
	if len(types) == 0 {
		types = AllTypes
	}
	relaxedFailed := false
	for _, t := range types {
		relaxed := t == TypeFour || t == TypeSix
		if relaxed && relaxedFailed {
			continue
		}
		res, out := attempt(g, active, dir, t, accept)
		if out == committed {
			return res, true
		}
		if relaxed && out == placementFailed {
			relaxedFailed = true
		}
	}
	return Result{}, false
}
