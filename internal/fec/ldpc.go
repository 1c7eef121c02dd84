package fec

import (
	"fmt"
	"math"
	"slices"
)

// LDPC implements an 802.11n-style quasi-cyclic low-density parity-check
// code: a 24-column base matrix of Z x Z circulants whose parity part has
// the dual-diagonal structure that permits linear-time encoding, and a
// normalized min-sum iterative decoder.
//
// The information part of the base matrix is generated deterministically
// (column weight 3, pseudo-random row placement and shifts) rather than
// copied from the standard's shift tables: the experiments compare code
// families at the standard's block lengths and rates, not particular
// matrices. Performance is within a fraction of a dB of the published
// matrices, which is all the reproduced experiments rely on.
type LDPC struct {
	Z        int      // circulant size (802.11n uses 27, 54, 81)
	nb       int      // base columns (24)
	mb       int      // base rows
	rate     CodeRate // nominal rate
	entries  []qcEntry
	checkAdj [][]int // expanded graph: variable indices per check node
}

type qcEntry struct {
	row, col, shift int
}

const ldpcBaseColumns = 24

// NewLDPC constructs a code of the given rate and circulant size. Z must
// be positive; the 802.11n values are 27, 54 and 81.
func NewLDPC(rate CodeRate, z int) *LDPC {
	if z <= 0 {
		panic("fec: LDPC circulant size must be positive")
	}
	var mb int
	switch rate {
	case Rate1_2:
		mb = 12
	case Rate2_3:
		mb = 8
	case Rate3_4:
		mb = 6
	case Rate5_6:
		mb = 4
	default:
		panic("fec: unsupported LDPC rate")
	}
	l := &LDPC{Z: z, nb: ldpcBaseColumns, mb: mb, rate: rate}
	l.buildBase()
	l.expandGraph()
	return l
}

// K returns the number of information bits per codeword.
func (l *LDPC) K() int { return (l.nb - l.mb) * l.Z }

// N returns the codeword length in bits.
func (l *LDPC) N() int { return l.nb * l.Z }

// buildBase lays out the base matrix: the dual-diagonal parity structure
// plus pseudo-random weight-3 information columns chosen to avoid
// length-4 cycles in the lifted Tanner graph (two columns sharing two
// rows form a 4-cycle when their shift differences coincide mod Z), the
// main impairment of naive random QC constructions.
func (l *LDPC) buildBase() {
	kb := l.nb - l.mb
	// Small deterministic LCG so codes are identical across runs.
	state := uint64(0x9E3779B97F4A7C15) ^ uint64(l.mb)<<32 ^ uint64(l.Z)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}

	// Parity column 0: rows 0 and mb-1 carry shift 1, the middle row shift
	// 0, so that summing all block-rows isolates p0.
	mid := l.mb / 2
	l.entries = append(l.entries,
		qcEntry{row: 0, col: kb, shift: 1 % l.Z},
		qcEntry{row: mid, col: kb, shift: 0},
		qcEntry{row: l.mb - 1, col: kb, shift: 1 % l.Z},
	)
	// Remaining parity columns: identity circulants on the dual diagonal.
	for j := 1; j < l.mb; j++ {
		l.entries = append(l.entries,
			qcEntry{row: j - 1, col: kb + j, shift: 0},
			qcEntry{row: j, col: kb + j, shift: 0},
		)
	}

	// byRow[r] collects placed (col, shift) pairs for the cycle check.
	type placed struct{ col, shift int }
	byRow := make([][]placed, l.mb)
	for _, e := range l.entries {
		byRow[e.row] = append(byRow[e.row], placed{e.col, e.shift})
	}
	// makesCycle reports whether a candidate column with entries
	// (rowA, sA) and (rowB, sB) closes a 4-cycle with any placed column.
	makesCycle := func(rowA, sA, rowB, sB int) bool {
		for _, a := range byRow[rowA] {
			for _, b := range byRow[rowB] {
				if a.col != b.col {
					continue
				}
				if ((sA-sB-a.shift+b.shift)%l.Z+l.Z)%l.Z == 0 {
					return true
				}
			}
		}
		return false
	}

	for j := 0; j < kb; j++ {
		var rows [3]int
		var shifts [3]int
		ok := false
		for attempt := 0; attempt < 300 && !ok; attempt++ {
			for n := 0; n < 3; {
				if r := next(l.mb); !slices.Contains(rows[:n], r) {
					rows[n] = r
					n++
				}
			}
			for i := range shifts {
				shifts[i] = next(l.Z)
			}
			ok = !makesCycle(rows[0], shifts[0], rows[1], shifts[1]) &&
				!makesCycle(rows[0], shifts[0], rows[2], shifts[2]) &&
				!makesCycle(rows[1], shifts[1], rows[2], shifts[2])
		}
		// Accept the final draw even if the search failed (dense bases at
		// high rate cannot always be 4-cycle free).
		for i := 0; i < 3; i++ {
			l.entries = append(l.entries, qcEntry{row: rows[i], col: j, shift: shifts[i]})
			byRow[rows[i]] = append(byRow[rows[i]], placed{j, shifts[i]})
		}
	}
}

// expandGraph lifts the base matrix into the full Tanner graph adjacency.
func (l *LDPC) expandGraph() {
	l.checkAdj = make([][]int, l.mb*l.Z)
	for _, e := range l.entries {
		for r := 0; r < l.Z; r++ {
			check := e.row*l.Z + r
			variable := e.col*l.Z + (r+e.shift)%l.Z
			l.checkAdj[check] = append(l.checkAdj[check], variable)
		}
	}
}

// shiftBlock returns x cyclically shifted left by s: out[i] = x[(i+s)%Z].
func shiftBlock(x []byte, s, z int) []byte {
	out := make([]byte, z)
	for i := 0; i < z; i++ {
		out[i] = x[(i+s)%z]
	}
	return out
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Encode produces the systematic codeword [info | parity] for exactly K()
// information bits using the dual-diagonal back-substitution.
func (l *LDPC) Encode(info []byte) []byte {
	if len(info) != l.K() {
		panic(fmt.Sprintf("fec: LDPC encode wants %d info bits, got %d", l.K(), len(info)))
	}
	z := l.Z
	kb := l.nb - l.mb
	mid := l.mb / 2

	// lambda[i] = sum over info columns of P^shift * c_j for block-row i.
	lambda := make([][]byte, l.mb)
	for i := range lambda {
		lambda[i] = make([]byte, z)
	}
	for _, e := range l.entries {
		if e.col >= kb {
			continue
		}
		block := info[e.col*z : (e.col+1)*z]
		xorInto(lambda[e.row], shiftBlock(block, e.shift, z))
	}

	parity := make([][]byte, l.mb)
	// p0 = sum of all lambda (the two shift-1 circulants cancel).
	p0 := make([]byte, z)
	for _, lam := range lambda {
		xorInto(p0, lam)
	}
	parity[0] = p0
	// Row 0: lambda0 + P^1 p0 + p1 = 0.
	p1 := append([]byte(nil), lambda[0]...)
	xorInto(p1, shiftBlock(p0, 1%z, z))
	if l.mb > 1 {
		parity[1] = p1
	}
	// Rows 1..mb-2: each yields the next parity block.
	for i := 1; i < l.mb-1; i++ {
		p := append([]byte(nil), lambda[i]...)
		xorInto(p, parity[i])
		if i == mid {
			xorInto(p, p0) // column 0 has a shift-0 circulant at the middle row
		}
		parity[i+1] = p
	}

	out := make([]byte, 0, l.N())
	out = append(out, info...)
	for _, p := range parity {
		out = append(out, p...)
	}
	return out
}

// CheckParity reports whether H * c == 0 for a hard codeword.
func (l *LDPC) CheckParity(codeword []byte) bool {
	if len(codeword) != l.N() {
		return false
	}
	for _, vars := range l.checkAdj {
		sum := byte(0)
		for _, v := range vars {
			sum ^= codeword[v] & 1
		}
		if sum != 0 {
			return false
		}
	}
	return true
}

// Decode runs normalized min-sum belief propagation (factor 0.8) for at
// most maxIter iterations on channel LLRs (positive favours 0). It
// returns the decoded information bits and whether all parity checks were
// satisfied.
func (l *LDPC) Decode(llrs []float64, maxIter int) ([]byte, bool) {
	if len(llrs) != l.N() {
		panic(fmt.Sprintf("fec: LDPC decode wants %d LLRs, got %d", l.N(), len(llrs)))
	}
	const alpha = 0.8
	nChecks := len(l.checkAdj)

	// Edge storage: messages per (check, position-in-check).
	c2v := make([][]float64, nChecks)
	for m := range c2v {
		c2v[m] = make([]float64, len(l.checkAdj[m]))
	}

	posterior := make([]float64, l.N())
	hard := make([]byte, l.N())

	decide := func() bool {
		ok := true
		for i, p := range posterior {
			if p < 0 {
				hard[i] = 1
			} else {
				hard[i] = 0
			}
		}
		for _, vars := range l.checkAdj {
			sum := byte(0)
			for _, v := range vars {
				sum ^= hard[v]
			}
			if sum != 0 {
				ok = false
				break
			}
		}
		return ok
	}

	copy(posterior, llrs)
	if decide() {
		return append([]byte(nil), hard[:l.K()]...), true
	}

	for iter := 0; iter < maxIter; iter++ {
		// Check-node update using v->c = posterior - c2v (flooding).
		for m, vars := range l.checkAdj {
			// First pass: find min1, min2 of |v2c| and product of signs.
			sign := 1.0
			min1, min2 := math.Inf(1), math.Inf(1)
			min1Pos := -1
			for pos, v := range vars {
				v2c := posterior[v] - c2v[m][pos]
				mag := math.Abs(v2c)
				if v2c < 0 {
					sign = -sign
				}
				if mag < min1 {
					min2 = min1
					min1 = mag
					min1Pos = pos
				} else if mag < min2 {
					min2 = mag
				}
			}
			// Second pass: emit messages and fold them into posteriors.
			for pos, v := range vars {
				v2c := posterior[v] - c2v[m][pos]
				mag := min1
				if pos == min1Pos {
					mag = min2
				}
				s := sign
				if v2c < 0 {
					s = -s
				}
				newMsg := alpha * s * mag
				posterior[v] += newMsg - c2v[m][pos]
				c2v[m][pos] = newMsg
			}
		}
		if decide() {
			return append([]byte(nil), hard[:l.K()]...), true
		}
	}
	return append([]byte(nil), hard[:l.K()]...), false
}
