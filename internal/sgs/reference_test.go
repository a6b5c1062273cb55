package sgs

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"testing"

	"github.com/peace-mesh/peace/internal/bn256"
)

// This file keeps the paper-literal forms of the two kernels that the
// production code rewrites, as test oracles:
//
//   - referenceSign computes R2 = e(T2, g2)^{r_x} · e(v, w^{−r_α}·g2^{−r_δ})
//     with two unprepared ate pairings, a GT exponentiation and two G2
//     exponentiations (paper Step 2.2.3);
//   - referenceIsRevoked scans Eq.3 as the literal equality
//     e(T2/A, û) = e(T1, v̂) of two full ate pairings per token.

// referenceSign is the paper-literal signer. It draws randomness in the
// same order as sign, so on the same stream both must produce the same
// signature byte for byte.
func referenceSign(rng io.Reader, pk *PublicKey, key *PrivateKey, msg []byte, mode GeneratorMode) (*Signature, error) {
	r, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	u, v := deriveG1Generators(pk, mode, msg, r, counter{})
	alpha, err := bn256.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	t1 := new(bn256.G1).ScalarMult(u, alpha)
	t2 := new(bn256.G1).ScalarMult(v, alpha)
	t2.Add(t2, key.A)

	grpX := new(big.Int).Add(key.Grp, key.X)
	grpX.Mod(grpX, bn256.Order)
	delta := mulMod(grpX, alpha)

	var rs [3]*big.Int // r_α, r_x, r_δ
	for i := range rs {
		if rs[i], err = bn256.RandomScalar(rng); err != nil {
			return nil, err
		}
	}
	rAlpha, rX, rDelta := rs[0], rs[1], rs[2]

	r1 := new(bn256.G1).ScalarMult(u, rAlpha)

	negRAlpha := new(big.Int).Sub(bn256.Order, rAlpha)
	negRDelta := new(big.Int).Sub(bn256.Order, rDelta)
	combined := new(bn256.G2).ScalarMult(pk.W, negRAlpha)
	combined.Add(combined, new(bn256.G2).ScalarBaseMult(negRDelta))
	r2 := bn256.Pair(t2, new(bn256.G2).Base())
	r2.ScalarMult(r2, rX)
	r2.Add(r2, bn256.Pair(v, combined))

	r3 := new(bn256.G1).ScalarMult(t1, rX)
	r3.Add(r3, new(bn256.G1).ScalarMult(u, negRDelta))

	c := challenge(pk, msg, r, t1, t2, r1, r2, r3)
	response := func(secret, blind *big.Int) *big.Int {
		s := new(big.Int).Mul(c, secret)
		s.Add(s, blind)
		return s.Mod(s, bn256.Order)
	}
	return &Signature{
		Mode:   mode,
		R:      r,
		T1:     t1,
		T2:     t2,
		C:      c,
		SAlpha: response(alpha, rAlpha),
		SX:     response(grpX, rX),
		SDelta: response(delta, rDelta),
	}, nil
}

// referenceIsRevoked is the paper-literal Eq.3 scan on the ate pairing.
func referenceIsRevoked(pk *PublicKey, msg []byte, sig *Signature, tokens []*RevocationToken) (bool, int) {
	if len(tokens) == 0 {
		return false, -1
	}
	uhat, vhat := deriveG2Generators(pk, sig.Mode, msg, sig.R, counter{})
	right := bn256.Pair(sig.T1, vhat)
	for i, tok := range tokens {
		quot := new(bn256.G1).Neg(tok.A)
		quot.Add(sig.T2, quot)
		if bn256.Pair(quot, uhat).Equal(right) {
			return true, i
		}
	}
	return false, -1
}

// TestSignMatchesReference pins the prepared-line signer to the
// paper-literal one: on 50 deterministic streams per generator mode the
// two must emit identical signature bytes.
func TestSignMatchesReference(t *testing.T) {
	rng := newDetReader("sign reference setup")
	iss, err := NewIssuer(rng)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := iss.NewGroupComponent(rng)
	if err != nil {
		t.Fatal(err)
	}
	key, err := iss.IssueKey(rng, grp)
	if err != nil {
		t.Fatal(err)
	}
	pk := iss.PublicKey()

	const streams = 50
	for _, mode := range []GeneratorMode{PerMessageGenerators, FixedGenerators} {
		for i := 0; i < streams; i++ {
			seed := fmt.Sprintf("sign reference %v %d", mode, i)
			msg := []byte(seed)
			got, err := SignWithMode(newDetReader(seed), pk, key, msg, mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceSign(newDetReader(seed), pk, key, msg, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v stream %d: Sign differs from the paper-literal signer", mode, i)
			}
		}
	}
}
