package sgs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/peace-mesh/peace/internal/bn256"
)

// IsRevoked scans the token list and reports whether the signer of sig is
// one of the listed (revoked) keys, and if so at which index. It implements
// the paper's Eq.3: token A matches iff e(T2/A, û) = e(T1, v̂).
//
// It runs the shared sweep kernel on one worker: each token costs one
// check-schedule Miller loop plus one final exponentiation (the paper
// charges two pairings per token).
func IsRevoked(pk *PublicKey, msg []byte, sig *Signature, tokens []*RevocationToken) (bool, int) {
	revoked, idx, _ := isRevoked(pk, msg, sig, tokens, nil)
	return revoked, idx
}

// IsRevokedCounted is IsRevoked with operation counts.
func IsRevokedCounted(pk *PublicKey, msg []byte, sig *Signature, tokens []*RevocationToken) (bool, int, OpCounts) {
	return isRevoked(pk, msg, sig, tokens, nil)
}

func isRevoked(pk *PublicKey, msg []byte, sig *Signature, tokens []*RevocationToken, counts *OpCounts) (bool, int, OpCounts) {
	var local OpCounts
	if counts == nil {
		counts = &local
	}
	ct := counter{counts}
	if len(tokens) == 0 {
		return false, -1, *counts
	}

	uhat, vhat := deriveG2Generators(pk, sig.Mode, msg, sig.R, ct)
	revoked, idx := isRevokedWithBases(sig, uhat, vhat, tokens, ct)
	return revoked, idx, *counts
}

// isRevokedWithBases runs the Eq.3 scan against pre-derived bases û, v̂
// on one worker, counting two pairings per token tested (the paper's
// convention) up to the first match.
func isRevokedWithBases(sig *Signature, uhat, vhat *bn256.G2, tokens []*RevocationToken, ct counter) (bool, int) {
	if len(tokens) == 0 {
		return false, -1
	}
	revoked, idx := sweep(sig.T1, sig.T2, bn256.PrepareCheckG2(uhat), bn256.PrepareCheckG2(vhat), tokens, 1)
	tested := len(tokens)
	if revoked {
		tested = idx + 1
	}
	ct.pairing(2 * tested)
	return revoked, idx
}

// sweep is the one Eq.3 kernel behind every revocation, audit and trace
// test: token A matches iff e(T2/A, û) · e(T1, v̂)⁻¹ = 1. It is an
// identity test, so it runs on the bn256 check schedule. The e(T1, v̂)⁻¹
// Miller value is computed once and shared read-only by every worker;
// each token then costs one check Miller loop against û's lines and one
// final exponentiation. Workers are clamped to [1, min(GOMAXPROCS,
// len(tokens))] and take tokens in index order; the smallest matching
// index is returned.
func sweep(t1, t2 *bn256.G1, uhat, vhat *bn256.CheckG2, tokens []*RevocationToken, workers int) (bool, int) {
	if len(tokens) == 0 {
		return false, -1
	}
	mRight := vhat.Miller(new(bn256.G1).Neg(t1))

	// More workers than cores only adds scheduler churn on this CPU-bound
	// loop; more workers than tokens leaves goroutines with nothing to do.
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		workers = procs
	}
	if workers > len(tokens) {
		workers = len(tokens)
	}
	if workers < 1 {
		workers = 1
	}

	n := int64(len(tokens))
	var found atomic.Int64
	found.Store(n)
	var next atomic.Int64
	scan := func() {
		// Per-worker scratch point, reused across every token this
		// worker examines instead of allocating one per token.
		quot := new(bn256.G1)
		for {
			i := next.Add(1) - 1
			// Indices are dispensed in order and found only decreases,
			// so skipping i ≥ found never skips a smaller match.
			if i >= n || i >= found.Load() {
				return
			}
			quot.Neg(tokens[i].A)
			quot.Add(t2, quot) // T2/A in multiplicative notation
			acc := uhat.Miller(quot)
			if acc.Mul(acc, mRight).IsOne() {
				for {
					cur := found.Load()
					if i >= cur || found.CompareAndSwap(cur, i) {
						break
					}
				}
				return
			}
		}
	}
	if workers == 1 {
		scan()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scan()
			}()
		}
		wg.Wait()
	}
	if idx := found.Load(); idx < n {
		return true, int(idx)
	}
	return false, -1
}

// FastRevocationChecker implements the constant-pairings-per-signature
// revocation test the paper cites from BS04 §6: with generators fixed
// per group (FixedGenerators mode), e(T2, û)/e(T1, v̂) = e(A, û) for the
// signer's token A, so revocation reduces to two pairings and a hash-table
// lookup regardless of |URL|. The privacy cost is that all signatures share
// bases, which is exactly the trade-off the paper acknowledges.
type FastRevocationChecker struct {
	pk       *PublicKey
	uhatPrep *bn256.PreparedG2
	vhatPrep *bn256.PreparedG2

	mu    sync.RWMutex
	index map[string]int // marshaled e(A, û) → token index
	size  int
}

// NewFastRevocationChecker precomputes the lookup table for the given
// tokens (one pairing per token, paid once).
func NewFastRevocationChecker(pk *PublicKey, tokens []*RevocationToken) *FastRevocationChecker {
	uhat, vhat := deriveG2Generators(pk, FixedGenerators, nil, nil, counter{})
	f := &FastRevocationChecker{
		pk:       pk,
		uhatPrep: bn256.PrepareG2(uhat),
		vhatPrep: bn256.PrepareG2(vhat),
		index:    make(map[string]int, len(tokens)),
	}
	for _, tok := range tokens {
		f.AddToken(tok)
	}
	return f
}

// AddToken registers an additional revoked token. It is safe to call
// concurrently with IsRevoked.
func (f *FastRevocationChecker) AddToken(tok *RevocationToken) {
	key := string(f.uhatPrep.Pair(tok.A).Marshal())
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.index[key]; !dup {
		f.index[key] = f.size
		f.size++
	}
}

// Len returns the number of registered tokens.
func (f *FastRevocationChecker) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.index)
}

// IsRevoked tests a FixedGenerators signature against the token table.
func (f *FastRevocationChecker) IsRevoked(sig *Signature) (bool, int, error) {
	revoked, idx, _, err := f.isRevoked(sig, nil)
	return revoked, idx, err
}

// IsRevokedCounted is IsRevoked with operation counts.
func (f *FastRevocationChecker) IsRevokedCounted(sig *Signature) (bool, int, OpCounts, error) {
	return f.isRevoked(sig, nil)
}

func (f *FastRevocationChecker) isRevoked(sig *Signature, counts *OpCounts) (bool, int, OpCounts, error) {
	var local OpCounts
	if counts == nil {
		counts = &local
	}
	ct := counter{counts}

	if sig.Mode != FixedGenerators {
		return false, -1, *counts, fmt.Errorf("sgs: fast revocation requires FixedGenerators signatures, got %v", sig.Mode)
	}

	// ratio = e(T2, û) · e(T1, v̂)^(−1), via prepared line coefficients and
	// a shared final exponentiation.
	t1Neg := new(bn256.G1).Neg(sig.T1)
	acc := f.uhatPrep.Miller(sig.T2)
	acc.Add(acc, f.vhatPrep.Miller(t1Neg))
	ct.pairing(2)
	ratio := acc.Finalize()

	key := string(ratio.Marshal())
	f.mu.RLock()
	defer f.mu.RUnlock()
	if idx, ok := f.index[key]; ok {
		return true, idx, *counts, nil
	}
	return false, -1, *counts, nil
}
