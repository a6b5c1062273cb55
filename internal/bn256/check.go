package bn256

// CheckG2 is a G2 argument prepared on the optimal-ate check schedule
// (Miller loop count 6u+2 plus the π(Q) and −π²(Q) lines, about half the
// work of the ate schedule). Its Miller values are CheckValues, which can
// be multiplied with each other and tested for identity but never
// marshaled or combined with GT values: the optimal ate pairing is a fixed
// power of the ate pairing, so it decides Π e(P_i, Q_i) = 1 exactly, but
// its values differ from Pair's.
//
// A CheckG2 is immutable after construction and safe for concurrent use.
type CheckG2 struct {
	lines g2Lines
}

// PrepareCheckG2 records q's line coefficients on the check schedule.
func PrepareCheckG2(q *G2) *CheckG2 {
	return &CheckG2{lines: prepareG2Lines(checkSchedule, q.p)}
}

// Miller evaluates the recorded lines at g1. Identity arguments on either
// side give the neutral element.
func (c *CheckG2) Miller(g1 *G1) *CheckValue {
	return &CheckValue{p: millerProduct(checkSchedule, []*g2Lines{&c.lines}, []*G1{g1})}
}

// CheckValue is an un-finalized optimal-ate Miller product. The zero value
// is not valid; values come from CheckG2.Miller.
type CheckValue struct {
	p *gfP12
}

// Mul sets e = a·b and returns e.
func (e *CheckValue) Mul(a, b *CheckValue) *CheckValue {
	if e.p == nil {
		e.p = newGFp12()
	}
	e.p.Mul(a.p, b.p)
	return e
}

// IsOne reports whether the product, after the final exponentiation, is
// the identity — that is, whether Π e(P_i, Q_i) = 1 over the factors
// multiplied into e. It does not modify e.
func (e *CheckValue) IsOne() bool {
	return finalExponentiation(e.p).IsOne()
}

// PairingCheck reports whether Π e(g1[i], g2[i]) = 1. It runs on the check
// schedule: one shared squaring chain for all pairs and one final
// exponentiation. It panics if the slices have different lengths.
func PairingCheck(g1s []*G1, g2s []*G2) bool {
	if len(g1s) != len(g2s) {
		panic("bn256: PairingCheck slice length mismatch")
	}
	lines := make([]*g2Lines, len(g2s))
	for i := range g2s {
		l := g2Lines{infinity: true}
		if !g1s[i].p.IsInfinity() {
			l = prepareG2Lines(checkSchedule, g2s[i].p)
		}
		lines[i] = &l
	}
	return (&CheckValue{p: millerProduct(checkSchedule, lines, g1s)}).IsOne()
}
