package bn256

// g2Lines is a G2 argument's recorded Miller lines on one schedule. The
// identity records no lines and contributes the neutral element.
type g2Lines struct {
	infinity bool
	steps    []preparedLine
}

func prepareG2Lines(s *millerSchedule, q *twistPoint) g2Lines {
	if q.IsInfinity() {
		return g2Lines{infinity: true}
	}
	return g2Lines{steps: s.prepare(q)}
}

// millerProduct evaluates Π f_{s,Q_i}(P_i) in one pass of s. Identity
// arguments on either side contribute the neutral element.
func millerProduct(s *millerSchedule, lines []*g2Lines, points []*G1) *gfP12 {
	args := make([]millerArg, 0, len(lines))
	for i, l := range lines {
		if l.infinity || points[i].p.IsInfinity() {
			continue
		}
		args = append(args, newMillerArg(l.steps, points[i].p))
	}
	if len(args) == 0 {
		return newGFp12().SetOne()
	}
	return s.eval(args)
}

// PreparedG2 caches the Miller-loop line computations for a fixed G2
// argument. The ate Miller loop walks a fixed doubling/addition schedule
// over the twist point Q, and the projective line coefficients of every
// step depend only on Q; the two G1-dependent coefficients are cheap
// per-evaluation scalar products with x_P and y_P. Precomputing the Q-side
// halves the cost of evaluating e(·, Q) against many G1 points (batch
// verification, signing against the fixed g2 and w).
//
// A PreparedG2 is immutable after construction and safe for concurrent
// use by multiple goroutines.
type PreparedG2 struct {
	lines g2Lines
}

// PrepareG2 runs the Miller doubling/addition schedule once for q and
// records the line coefficients. The cost is comparable to one Miller loop.
func PrepareG2(q *G2) *PreparedG2 {
	return &PreparedG2{lines: prepareG2Lines(ateSchedule, q.p)}
}

// Miller evaluates the recorded lines at g1, returning the un-finalized
// Miller value f_{T,Q}(P) exactly as Miller(g1, q) would. Combine values
// with GT.Add and reduce once with GT.Finalize.
func (pq *PreparedG2) Miller(g1 *G1) *GT {
	return &GT{p: millerProduct(ateSchedule, []*g2Lines{&pq.lines}, []*G1{g1})}
}

// Pair evaluates the full pairing e(g1, Q) via the prepared lines.
func (pq *PreparedG2) Pair(g1 *G1) *GT {
	return pq.Miller(g1).Finalize()
}

// MillerCombined evaluates the product Π f_{T,Q_i}(P_i) for several
// prepared Q_i in a single pass. All ate Miller loops walk the same
// doubling/addition schedule, so the per-bit squaring of the accumulator
// can be shared across the product: n pairings cost one squaring chain plus
// n sets of line multiplications, instead of n of each. Identity arguments
// on either side contribute the neutral element. The result is
// un-finalized; reduce it with GT.Finalize (possibly after multiplying
// in further Miller values).
//
// It panics if the slices have different lengths.
func MillerCombined(preps []*PreparedG2, points []*G1) *GT {
	if len(preps) != len(points) {
		panic("bn256: MillerCombined slice length mismatch")
	}
	lines := make([]*g2Lines, len(preps))
	for i, pq := range preps {
		lines[i] = &pq.lines
	}
	return &GT{p: millerProduct(ateSchedule, lines, points)}
}
