package bn256

import (
	"math/big"
	"testing"
)

// checkPairing is the finalized optimal-ate value e_opt(P, Q). Production
// code never sees it: CheckValue only answers IsOne.
func checkPairing(q *twistPoint, p *curvePoint) *gfP12 {
	if q.IsInfinity() || p.IsInfinity() {
		return newGFp12().SetOne()
	}
	return finalExponentiation(checkSchedule.eval([]millerArg{newMillerArg(checkSchedule.prepare(q), p)}))
}

func TestCheckScheduleShape(t *testing.T) {
	// 6u+2 has 66 bits, 24 of them set: 65 doublings, 23 additions and
	// the two Frobenius lines — 90 lines against the ate schedule's 192.
	if got := len(checkSchedule.square); got != 90 {
		t.Errorf("check schedule has %d lines, want 90", got)
	}
	if got := len(ateSchedule.square); got != 192 {
		t.Errorf("ate schedule has %d lines, want 192", got)
	}
	if got := len(checkSchedule.prepare(twistGen)); got != len(checkSchedule.square) {
		t.Errorf("prepare recorded %d lines for a %d-line schedule", got, len(checkSchedule.square))
	}
}

func TestCheckPairingNonDegenerate(t *testing.T) {
	e := checkPairing(twistGen, curveGen)
	if e.IsOne() {
		t.Fatal("e_opt(g1, g2) = 1: check pairing degenerate")
	}
	if !newGFp12().Exp(e, Order).IsOne() {
		t.Fatal("e_opt(g1, g2)^n != 1: check value outside the r-torsion")
	}
	// The two maps are different powers of one pairing, which is why
	// check values must never reach a hash or the wire.
	if e.Equal(gtGen) {
		t.Fatal("e_opt(g1, g2) = e_ate(g1, g2): schedules unexpectedly agree")
	}
}

func TestCheckPairingBilinear(t *testing.T) {
	base := checkPairing(twistGen, curveGen)
	for i := 0; i < 3; i++ {
		a := randomScalarT(t)
		b := randomScalarT(t)
		pa := newCurvePoint().Mul(curveGen, a)
		qb := newTwistPoint().Mul(twistGen, b)

		ab := new(big.Int).Mul(a, b)
		ab.Mod(ab, Order)
		if got, want := checkPairing(qb, pa), newGFp12().Exp(base, ab); !got.Equal(want) {
			t.Fatalf("e_opt(aP, bQ) != e_opt(P, Q)^(ab) (iteration %d)", i)
		}
		// Linearity in each argument separately, at random points.
		p2 := newCurvePoint().Add(pa, pa)
		if got, want := checkPairing(qb, p2), newGFp12().Square(checkPairing(qb, pa)); !got.Equal(want) {
			t.Fatalf("e_opt(2P, Q) != e_opt(P, Q)² (iteration %d)", i)
		}
		q2 := newTwistPoint().Add(qb, qb)
		if got, want := checkPairing(q2, pa), newGFp12().Square(checkPairing(qb, pa)); !got.Equal(want) {
			t.Fatalf("e_opt(P, 2Q) != e_opt(P, Q)² (iteration %d)", i)
		}
	}
}

func TestCheckIdentityArguments(t *testing.T) {
	p := new(G1).ScalarBaseMult(randomScalarT(t))
	q := new(G2).ScalarBaseMult(randomScalarT(t))
	inf1 := new(G1).SetInfinity()
	inf2 := new(G2).SetInfinity()

	if !PrepareCheckG2(q).Miller(inf1).IsOne() {
		t.Error("check Miller at the G1 identity should be one")
	}
	if !PrepareCheckG2(inf2).Miller(p).IsOne() {
		t.Error("check Miller of the G2 identity should be one")
	}
	if PrepareCheckG2(q).Miller(p).IsOne() {
		t.Error("check Miller of generic points finalized to one")
	}
	if !PairingCheck([]*G1{inf1, p}, []*G2{q, inf2}) {
		t.Error("PairingCheck over identity pairs should hold")
	}
	if !PairingCheck(nil, nil) {
		t.Error("empty PairingCheck should hold")
	}
}

// TestCheckCombinedMatchesProduct pins the shared-squaring product on the
// check schedule against the product of independent evaluations, exactly
// (before the final exponentiation).
func TestCheckCombinedMatchesProduct(t *testing.T) {
	lines := make([]*g2Lines, 3)
	points := make([]*G1, 3)
	want := newGFp12().SetOne()
	for i := range lines {
		p := new(G1).ScalarBaseMult(randomScalarT(t))
		q := new(G2).ScalarBaseMult(randomScalarT(t))
		l := prepareG2Lines(checkSchedule, q.p)
		lines[i] = &l
		points[i] = p
		want.Mul(want, PrepareCheckG2(q).Miller(p).p)
	}
	if got := millerProduct(checkSchedule, lines, points); !got.Equal(want) {
		t.Fatal("combined check product disagrees with the product of Miller values")
	}

	// CheckValue.Mul is the same product, and e(P,Q)·e(−P,Q) cancels.
	p := new(G1).ScalarBaseMult(randomScalarT(t))
	q := PrepareCheckG2(new(G2).ScalarBaseMult(randomScalarT(t)))
	acc := q.Miller(p)
	acc.Mul(acc, q.Miller(new(G1).Neg(p)))
	if !acc.IsOne() {
		t.Fatal("e(P,Q)·e(−P,Q) should check to one")
	}
	acc.Mul(acc, q.Miller(p))
	if acc.IsOne() {
		t.Fatal("e(P,Q) alone checked to one")
	}
}

// dhProductIsOne evaluates e(aP, bQ)·e(−cP, Q) = 1 on the ate schedule
// (Miller + Finalize) and on the check schedule (PairingCheck). It backs
// FuzzCheckVsAte.
func dhProductIsOne(a, b, c *big.Int) (ate, check bool) {
	pa := new(G1).ScalarBaseMult(a)
	qb := new(G2).ScalarBaseMult(b)
	pc := new(G1).Neg(new(G1).ScalarBaseMult(c))
	q := new(G2).Base()

	acc := Miller(pa, qb)
	acc.Add(acc, Miller(pc, q))
	ate = acc.Finalize().IsOne()
	check = PairingCheck([]*G1{pa, pc}, []*G2{qb, q})
	return ate, check
}
