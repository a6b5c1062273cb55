package bn256

import "math/big"

// This file implements the (plain) ate pairing
//
//	e(Q, P) = f_{T,Q}(P)^((p¹²−1)/n),  T = t − 1 = 6u²,
//
// for Q in the order-n subgroup of the twist and P ∈ E(F_p). The Miller
// loop uses the inversion-free projective line functions of Costello et al.
// ("Faster Computation of the Tate Pairing", arXiv:0904.0854): the running
// point R stays in Jacobian coordinates on the twist (with t caching z²)
// and every doubling/addition step emits the three F_p² coefficients of the
// sparse line element
//
//	l(P) = c0·y_P + c1·x_P·w + c3·w³,
//
// where w⁶ = ξ is the untwist generator. The projective formulas scale the
// line by an overall F_p² factor relative to the affine chord/tangent; that
// factor lies in a proper subfield of F_p¹² and is erased by the final
// exponentiation.
//
// Line coefficients depend only on Q, so the doubling/addition schedule for
// a fixed loop count can be computed once per Q and replayed against many
// P — that is exactly what PreparedG2 and CheckG2 do. miller() itself is
// just prepare + eval on the ate schedule.

// preparedLine holds the P-independent coefficients of one Miller-loop line.
// At evaluation time c1 is scaled by x_P and c0 by y_P (both base-field
// scalars), then the sparse product f·(c0 + c1·ω + c3·τω) is formed.
type preparedLine struct {
	c3, c1, c0 gfP2
}

// lineDouble doubles r in place (Jacobian, r.t = r.z²) and returns the
// tangent-line coefficients at r before doubling.
func lineDouble(r *twistPoint) preparedLine {
	var A, B, C, D, E, G, t gfP2
	A.Square(&r.x)
	B.Square(&r.y)
	C.Square(&B)

	D.Add(&r.x, &B)
	D.Square(&D)
	D.Sub(&D, &A)
	D.Sub(&D, &C)
	D.Double(&D)

	E.Double(&A)
	E.Add(&E, &A)
	G.Square(&E)

	var rx, ry, rz, rt gfP2
	rx.Sub(&G, &D)
	rx.Sub(&rx, &D)

	rz.Add(&r.y, &r.z)
	rz.Square(&rz)
	rz.Sub(&rz, &B)
	rz.Sub(&rz, &r.t)

	ry.Sub(&D, &rx)
	ry.Mul(&ry, &E)
	t.Double(&C)
	t.Double(&t)
	t.Double(&t)
	ry.Sub(&ry, &t)

	rt.Square(&rz)

	var line preparedLine
	// c1·x_P with c1 = −2·E·z_R².
	t.Mul(&E, &r.t)
	t.Double(&t)
	line.c1.Neg(&t)

	// c3 = (x_R + E)² − A − G − 4B.
	line.c3.Add(&r.x, &E)
	line.c3.Square(&line.c3)
	line.c3.Sub(&line.c3, &A)
	line.c3.Sub(&line.c3, &G)
	t.Double(&B)
	t.Double(&t)
	line.c3.Sub(&line.c3, &t)

	// c0·y_P with c0 = 2·z_out·z_R².
	line.c0.Mul(&rz, &r.t)
	line.c0.Double(&line.c0)

	r.x = rx
	r.y = ry
	r.z = rz
	r.t = rt
	return line
}

// lineAdd mixed-adds the affine point q (z = t = 1) to r in place and
// returns the chord-line coefficients. qy2 must be q.y², precomputed once
// per Miller loop.
func lineAdd(r, q *twistPoint, qy2 *gfP2) preparedLine {
	var B, D, H, I, E, J, L1, V, t, t2 gfP2
	B.Mul(&q.x, &r.t)

	D.Add(&q.y, &r.z)
	D.Square(&D)
	D.Sub(&D, qy2)
	D.Sub(&D, &r.t)
	D.Mul(&D, &r.t) // 2·y_Q·z_R³

	H.Sub(&B, &r.x)
	I.Square(&H)

	E.Double(&I)
	E.Double(&E)

	J.Mul(&H, &E)

	L1.Sub(&D, &r.y)
	L1.Sub(&L1, &r.y)

	V.Mul(&r.x, &E)

	var rx, ry, rz, rt gfP2
	rx.Square(&L1)
	rx.Sub(&rx, &J)
	rx.Sub(&rx, &V)
	rx.Sub(&rx, &V)

	rz.Add(&r.z, &H)
	rz.Square(&rz)
	rz.Sub(&rz, &r.t)
	rz.Sub(&rz, &I)

	t.Sub(&V, &rx)
	t.Mul(&t, &L1)
	t2.Mul(&r.y, &J)
	t2.Double(&t2)
	ry.Sub(&t, &t2)

	rt.Square(&rz)

	var line preparedLine
	// c3 = 2·L1·x_Q − ((y_Q + z_out)² − y_Q² − z_out²).
	t.Add(&q.y, &rz)
	t.Square(&t)
	t.Sub(&t, qy2)
	t.Sub(&t, &rt)
	t2.Mul(&L1, &q.x)
	t2.Double(&t2)
	line.c3.Sub(&t2, &t)

	// c1·x_P with c1 = −2·L1.
	line.c1.Neg(&L1)
	line.c1.Double(&line.c1)

	// c0·y_P with c0 = 2·z_out.
	line.c0.Double(&rz)

	r.x = rx
	r.y = ry
	r.z = rz
	r.t = rt
	return line
}

// millerSchedule is one Miller-loop addition chain over the G2 argument:
// for each bit of count below the leading one, a doubling step and, on a
// set bit, an addition of Q; with frobTail, two closing additions of π(Q)
// and −π²(Q). Every step emits one line. square[i] says whether the
// accumulator is squared before the i-th line is multiplied in, so the
// prepare and eval halves of the engine walk the same chain.
//
// Two schedules exist:
//
//   - ateSchedule, count T = 6u² (128 bits): the plain ate pairing behind
//     Pair, Miller, PreparedG2 and every value that is marshaled or hashed.
//   - checkSchedule, count 6u+2 (66 bits) plus the Frobenius tail: the
//     optimal ate pairing of Vercauteren (IEEE TIT 2010). It is a
//     non-degenerate bilinear map on G1 × G2 too, but its values are a
//     fixed power of the ate values, so it is reachable only through
//     CheckG2, CheckValue and PairingCheck, whose results can only be
//     tested for identity.
type millerSchedule struct {
	count    *big.Int
	frobTail bool
	square   []bool
}

func newMillerSchedule(count *big.Int, frobTail bool) *millerSchedule {
	s := &millerSchedule{count: count, frobTail: frobTail}
	for i := count.BitLen() - 2; i >= 0; i-- {
		s.square = append(s.square, true)
		if count.Bit(i) != 0 {
			s.square = append(s.square, false)
		}
	}
	if frobTail {
		s.square = append(s.square, false, false)
	}
	return s
}

var (
	ateSchedule   = newMillerSchedule(ateLoopCount, false)
	checkSchedule = newMillerSchedule(optimalLoopCount, true)
)

// prepare runs the schedule's doubling/addition chain over q alone,
// recording one preparedLine per step in loop order.
func (s *millerSchedule) prepare(q *twistPoint) []preparedLine {
	qa := newTwistPoint().Set(q)
	qa.MakeAffine()
	qy2 := newGFp2().Square(&qa.y)

	r := newTwistPoint().Set(qa)
	steps := make([]preparedLine, 0, len(s.square))
	for i := s.count.BitLen() - 2; i >= 0; i-- {
		steps = append(steps, lineDouble(r))
		if s.count.Bit(i) != 0 {
			steps = append(steps, lineAdd(r, qa, qy2))
		}
	}
	if s.frobTail {
		// π(Q) on the twist: untwist, apply the p-power Frobenius, twist
		// back. With the untwist (x, y) ↦ (x·w², y·w³) and w⁶ = ξ this is
		// (x̄·ξ^((p−1)/3), ȳ·ξ^((p−1)/2)).
		q1 := newTwistPoint()
		q1.x.Conjugate(&qa.x)
		q1.x.Mul(&q1.x, xiToPMinus1Over3)
		q1.y.Conjugate(&qa.y)
		q1.y.Mul(&q1.y, xiToPMinus1Over2)
		q1.z.SetOne()
		q1.t.SetOne()
		steps = append(steps, lineAdd(r, q1, newGFp2().Square(&q1.y)))

		// −π²(Q): the two conjugations cancel, leaving the p² factors.
		q2 := newTwistPoint()
		q2.x.Mul(&qa.x, xiToPSquaredMinus1Over3)
		q2.y.Mul(&qa.y, xiToPSquaredMinus1Over2)
		q2.y.Neg(&q2.y)
		q2.z.SetOne()
		q2.t.SetOne()
		steps = append(steps, lineAdd(r, q2, newGFp2().Square(&q2.y)))
	}
	return steps
}

// millerArg is one factor of a Miller product: a G2 argument's recorded
// lines and the affine coordinates of the G1 argument.
type millerArg struct {
	steps []preparedLine
	x, y  gfP
}

func newMillerArg(steps []preparedLine, p *curvePoint) millerArg {
	pa := newCurvePoint().Set(p)
	pa.MakeAffine()
	return millerArg{steps: steps, x: pa.x, y: pa.y}
}

// eval computes the un-finalized product Π f_{s,Q_i}(P_i). All factors
// walk the same chain, so the per-step squaring of the accumulator is
// shared: n factors cost one squaring chain plus n sets of line
// multiplications.
func (s *millerSchedule) eval(args []millerArg) *gfP12 {
	f := newGFp12().SetOne()
	var c0, c1 gfP2
	for i, sq := range s.square {
		if sq {
			f.Square(f)
		}
		for j := range args {
			a := &args[j]
			l := &a.steps[i]
			c1.MulScalar(&l.c1, &a.x)
			c0.MulScalar(&l.c0, &a.y)
			f.MulLine(f, &c0, &c1, &l.c3)
		}
	}
	return f
}

// miller computes f_{T,Q}(P) for T = ateLoopCount.
func miller(q *twistPoint, p *curvePoint) *gfP12 {
	return ateSchedule.eval([]millerArg{newMillerArg(ateSchedule.prepare(q), p)})
}

// finalExponentiationEasy computes f^((p⁶−1)(p²+1)), mapping f into the
// cyclotomic subgroup.
func finalExponentiationEasy(in *gfP12) *gfP12 {
	t1 := newGFp12().Conjugate(in) // in^(p⁶)
	inv := newGFp12().Invert(in)
	t1.Mul(t1, inv) // in^(p⁶−1)
	t2 := newGFp12().FrobeniusP2(t1)
	t1.Mul(t1, t2) // ^(p²+1)
	return t1
}

// finalExponentiation computes f^((p¹²−1)/n) using the Devegili–Scott–Dahab
// addition chain for BN curves in the hard part. After the easy part the
// value lies in the cyclotomic subgroup, so the three exponentiations by u
// and the chain's squarings use the cheaper cyclotomic arithmetic
// (Granger–Scott squaring, conjugation as inversion under NAF recoding).
func finalExponentiation(in *gfP12) *gfP12 {
	t1 := finalExponentiationEasy(in)

	fp := newGFp12().Frobenius(t1)
	fp2 := newGFp12().FrobeniusP2(t1)
	fp3 := newGFp12().Frobenius(fp2)

	fu := newGFp12().cyclotomicExp(t1, u)
	fu2 := newGFp12().cyclotomicExp(fu, u)
	fu3 := newGFp12().cyclotomicExp(fu2, u)

	y3 := newGFp12().Frobenius(fu)
	fu2p := newGFp12().Frobenius(fu2)
	fu3p := newGFp12().Frobenius(fu3)
	y2 := newGFp12().FrobeniusP2(fu2)

	y0 := newGFp12().Mul(fp, fp2)
	y0.Mul(y0, fp3)

	y1 := newGFp12().Conjugate(t1)
	y5 := newGFp12().Conjugate(fu2)
	y3.Conjugate(y3)
	y4 := newGFp12().Mul(fu, fu2p)
	y4.Conjugate(y4)
	y6 := newGFp12().Mul(fu3, fu3p)
	y6.Conjugate(y6)

	t0 := newGFp12().CyclotomicSquare(y6)
	t0.Mul(t0, y4)
	t0.Mul(t0, y5)
	t1b := newGFp12().Mul(y3, y5)
	t1b.Mul(t1b, t0)
	t0.Mul(t0, y2)
	t1b.CyclotomicSquare(t1b)
	t1b.Mul(t1b, t0)
	t1b.CyclotomicSquare(t1b)
	t0.Mul(t1b, y1)
	t1b.Mul(t1b, y0)
	t0.CyclotomicSquare(t0)
	t0.Mul(t0, t1b)
	return t0
}

// finalExponentiationGeneric computes f^((p¹²−1)/n) the slow, unambiguous
// way: the easy part followed by a plain exponentiation by (p⁴−p²+1)/n.
// The test suite asserts it agrees with finalExponentiation.
func finalExponentiationGeneric(in *gfP12) *gfP12 {
	t := finalExponentiationEasy(in)

	p2 := new(big.Int).Mul(P, P)
	p4 := new(big.Int).Mul(p2, p2)
	e := new(big.Int).Sub(p4, p2)
	e.Add(e, big.NewInt(1))
	e.Div(e, Order)
	return newGFp12().Exp(t, e)
}

// atePairing computes e(Q, P). If either input is the identity, the result
// is the identity of GT.
func atePairing(q *twistPoint, p *curvePoint) *gfP12 {
	if q.IsInfinity() || p.IsInfinity() {
		return newGFp12().SetOne()
	}
	return finalExponentiation(miller(q, p))
}
