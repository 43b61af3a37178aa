package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/partition"
)

// TopologySpec is the parsed form of the wire-level `topology` field. The
// grammar covers the legacy named topologies and the per-link classes the
// cost model supports:
//
//	""                 — fully connected, uniform links (legacy default)
//	"fully-connected"  — same, explicit
//	"star"             — legacy star relaying through P
//	"2+1[:f]"          — P and R share a node; every link touching S
//	                     crosses an interconnect f× slower (default 10)
//	"3-island[:f]"     — each processor is its own island on a
//	                     hierarchical fabric: links touching the head
//	                     island P are f× slower, and the R↔S pair crosses
//	                     an oversubscribed second tier at f²× (default
//	                     f=10). The tiering matters: scaling every link
//	                     by the same factor provably cannot move a single
//	                     winner-map cell (computation time is
//	                     shape-invariant per ratio and a uniform rescale
//	                     preserves the communication ordering), so a flat
//	                     3-island would be the uniform topology in
//	                     disguise.
//	"links:<entries>"  — explicit per-pair β multipliers. Entries are
//	                     comma-separated: "PR=2" prices both directions
//	                     of the P↔R link, "P>R=2" only the directed P→R
//	                     link. Every ordered pair must end up priced
//	                     (symmetric entries count for both directions).
//
// Factors multiply the base machine's β (bandwidth share); α is carried
// over unchanged. All factors must be finite and within [1e-6, 1e6]. The
// zero value is FullyConnected, and specs compare with ==.
type TopologySpec struct {
	kind   specKind
	factor float64
	// mult[p][q] scales the base β of the p→q link (see Machine.Price);
	// it is zero for the legacy kinds, whose every link is the base
	// network.
	mult [partition.NumProcs][partition.NumProcs]float64
}

type specKind uint8

const (
	kindFullyConnected specKind = iota
	kindStar
	kindTwoPlusOne
	kindThreeIsland
	kindLinks
)

// The two legacy interconnects of Section X.
var (
	// FullyConnected lets every processor pair communicate directly.
	FullyConnected = TopologySpec{}
	// Star routes all traffic through the fastest processor P: R and S
	// exchange data only via P, doubling the cost of any R↔S volume.
	Star = TopologySpec{kind: kindStar}
)

// Factor bounds: outside this range a multiplier is either a rounding
// hazard or an input-fuzzing artefact, not a plausible interconnect.
const (
	minFactor = 1e-6
	maxFactor = 1e6
)

// maxSpecLen bounds the accepted spec string; anything longer is rejected
// before parsing (oversized wire input).
const maxSpecLen = 256

func formatFactor(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// String renders the canonical form of the spec: named kinds carry their
// factor explicitly and link lists are ordered PR, PS, RS with directed
// entries only where the directions differ. ParseTopologySpec(String())
// round-trips.
func (t TopologySpec) String() string {
	switch t.kind {
	case kindTwoPlusOne:
		return "2+1:" + formatFactor(t.factor)
	case kindThreeIsland:
		return "3-island:" + formatFactor(t.factor)
	case kindLinks:
		var parts []string
		for _, pair := range linkPairs {
			f, r := t.mult[pair.a][pair.b], t.mult[pair.b][pair.a]
			if f == r {
				parts = append(parts, fmt.Sprintf("%s%s=%s", pair.a, pair.b, formatFactor(f)))
			} else {
				parts = append(parts,
					fmt.Sprintf("%s>%s=%s", pair.a, pair.b, formatFactor(f)),
					fmt.Sprintf("%s>%s=%s", pair.b, pair.a, formatFactor(r)))
			}
		}
		return "links:" + strings.Join(parts, ",")
	case kindStar:
		return "star"
	}
	return "fully-connected"
}

// linkPairs is the canonical unordered pair order (P fastest first).
var linkPairs = [3]struct{ a, b partition.Proc }{
	{partition.P, partition.R},
	{partition.P, partition.S},
	{partition.R, partition.S},
}

// Apply returns m on this topology: Price and Transfers read the spec
// from m.Topology, so a link spec scales whatever base network m carries
// when it is priced.
func (t TopologySpec) Apply(m Machine) Machine {
	m.Topology = t
	return m
}

func specErr(format string, args ...interface{}) error {
	return &ConfigError{Field: "topology", Reason: fmt.Sprintf(format, args...)}
}

func parseFactor(s, what string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, specErr("%s: bad factor %q", what, s)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, specErr("%s: factor must be finite, got %v", what, f)
	}
	if f < minFactor || f > maxFactor {
		return 0, specErr("%s: factor %v outside [%g, %g]", what, f, minFactor, maxFactor)
	}
	return f, nil
}

func parseProcName(s string) (partition.Proc, bool) {
	switch strings.ToUpper(s) {
	case "P":
		return partition.P, true
	case "R":
		return partition.R, true
	case "S":
		return partition.S, true
	}
	return 0, false
}

// ParseTopologySpec parses a wire topology string. Errors are always
// *ConfigError with Field "topology" — never a panic — so handlers can
// map them to a 400 naming the offending entry.
func ParseTopologySpec(s string) (TopologySpec, error) {
	if len(s) > maxSpecLen {
		return TopologySpec{}, specErr("spec longer than %d bytes", maxSpecLen)
	}
	switch s {
	case "", FullyConnected.String():
		return FullyConnected, nil
	case Star.String():
		return Star, nil
	}
	if rest, ok := strings.CutPrefix(s, "links:"); ok {
		return parseLinkList(rest)
	}
	name, factorStr := s, ""
	hasFactor := false
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, factorStr = s[:i], s[i+1:]
		hasFactor = true
	}
	var kind specKind
	switch name {
	case "2+1":
		kind = kindTwoPlusOne
	case "3-island":
		kind = kindThreeIsland
	default:
		return TopologySpec{}, specErr("unknown topology %q", s)
	}
	factor := 10.0
	if hasFactor {
		f, err := parseFactor(factorStr, name)
		if err != nil {
			return TopologySpec{}, err
		}
		factor = f
	}
	if sq := factor * factor; kind == kindThreeIsland && (sq > maxFactor || sq < minFactor) {
		return TopologySpec{}, specErr("3-island: factor %v squares outside [%g, %g] on the R↔S tier", factor, float64(minFactor), float64(maxFactor))
	}
	t := TopologySpec{kind: kind, factor: factor}
	for _, p := range partition.Procs {
		for _, q := range partition.Procs {
			if p == q {
				continue
			}
			switch {
			case kind == kindThreeIsland && p != partition.P && q != partition.P:
				// R↔S crosses the oversubscribed second tier.
				t.mult[p][q] = factor * factor
			case kind == kindThreeIsland:
				t.mult[p][q] = factor
			case p == partition.S || q == partition.S:
				// 2+1: only S is off-node.
				t.mult[p][q] = factor
			default:
				t.mult[p][q] = 1
			}
		}
	}
	return t, nil
}

func parseLinkList(list string) (TopologySpec, error) {
	t := TopologySpec{kind: kindLinks}
	var have [partition.NumProcs][partition.NumProcs]bool
	entries := strings.Split(list, ",")
	if len(entries) > 2*partition.NumProcs*(partition.NumProcs-1) {
		return TopologySpec{}, specErr("too many link entries (%d)", len(entries))
	}
	for _, entry := range entries {
		entry = strings.TrimSpace(entry)
		eq := strings.IndexByte(entry, '=')
		if eq < 0 {
			return TopologySpec{}, specErr("link entry %q: missing '='", entry)
		}
		pair, val := entry[:eq], entry[eq+1:]
		f, err := parseFactor(val, "link "+pair)
		if err != nil {
			return TopologySpec{}, err
		}
		var dirs [][2]partition.Proc
		if i := strings.IndexByte(pair, '>'); i >= 0 {
			from, okF := parseProcName(pair[:i])
			to, okT := parseProcName(pair[i+1:])
			if !okF || !okT || from == to {
				return TopologySpec{}, specErr("bad directed link %q", pair)
			}
			dirs = [][2]partition.Proc{{from, to}}
		} else {
			if len(pair) != 2 {
				return TopologySpec{}, specErr("bad link pair %q", pair)
			}
			a, okA := parseProcName(pair[:1])
			b, okB := parseProcName(pair[1:])
			if !okA || !okB || a == b {
				return TopologySpec{}, specErr("bad link pair %q", pair)
			}
			dirs = [][2]partition.Proc{{a, b}, {b, a}}
		}
		for _, d := range dirs {
			if have[d[0]][d[1]] {
				return TopologySpec{}, specErr("link %s>%s priced twice", d[0], d[1])
			}
			have[d[0]][d[1]] = true
			t.mult[d[0]][d[1]] = f
		}
	}
	for _, p := range partition.Procs {
		for _, q := range partition.Procs {
			if p != q && !have[p][q] {
				return TopologySpec{}, specErr("link %s>%s not priced", p, q)
			}
		}
	}
	return t, nil
}
