package experiments

import (
	"crypto/rand"
	"runtime"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/sgs"
)

// E11AblationRow quantifies one implementation design choice by timing
// the system with and without it.
type E11AblationRow struct {
	Name      string
	Baseline  time.Duration // without the technique
	Optimized time.Duration // with it
	Speedup   float64
	Detail    string
}

// RunE11Ablations measures the ablations DESIGN.md calls out:
//
//   - shared final exponentiation in product-of-pairings checks (used by
//     every Eq.3 revocation/audit test),
//   - fixed-generator signatures enabling the O(1) revocation table
//     (privacy trade-off, E3's fast path),
//   - compressed versus uncompressed signature encodings (wire size, not
//     time: Speedup is the byte ratio).
//
// Each timed arm is the median over e11Repeats repeats in which the arms
// alternate call by call, measured in thread CPU time (see timeArms).
func RunE11Ablations(iters int) ([]E11AblationRow, error) {
	if iters < 1 {
		iters = 1
	}
	var rows []E11AblationRow

	// --- Shared final exponentiation. ----------------------------------
	{
		a, err := bn256.RandomScalar(rand.Reader)
		if err != nil {
			return nil, err
		}
		p1 := new(bn256.G1).ScalarBaseMult(a)
		p2 := new(bn256.G1).Neg(p1)
		q := new(bn256.G2).Base()

		times, err := timeArms(iters,
			func() error {
				e1 := bn256.Pair(p1, q)
				e2 := bn256.Pair(p2, q)
				_ = e1.Equal(e2)
				return nil
			},
			func() error {
				acc := bn256.Miller(p1, q)
				acc.Add(acc, bn256.Miller(p2, q))
				_ = acc.Finalize().IsOne()
				return nil
			})
		if err != nil {
			return nil, err
		}
		baseline, optimized := times[0], times[1]

		rows = append(rows, E11AblationRow{
			Name:      "shared final exponentiation (Eq.3 token test)",
			Baseline:  baseline,
			Optimized: optimized,
			Speedup:   ratio(baseline, optimized),
			Detail:    "2 pairings vs 2 Miller loops + 1 final exp",
		})
	}

	// --- Generator modes (per-message vs fixed). ------------------------
	{
		iss, err := sgs.NewIssuer(rand.Reader)
		if err != nil {
			return nil, err
		}
		grp, err := iss.NewGroupComponent(rand.Reader)
		if err != nil {
			return nil, err
		}
		key, err := iss.IssueKey(rand.Reader, grp)
		if err != nil {
			return nil, err
		}
		msg := []byte("ablation")

		signVerify := func(mode sgs.GeneratorMode) func() error {
			return func() error {
				sig, err := sgs.SignWithMode(rand.Reader, iss.PublicKey(), key, msg, mode)
				if err != nil {
					return err
				}
				return sgs.Verify(iss.PublicKey(), msg, sig)
			}
		}
		times, err := timeArms(iters, signVerify(sgs.PerMessageGenerators), signVerify(sgs.FixedGenerators))
		if err != nil {
			return nil, err
		}
		perMsg, fixed := times[0], times[1]
		rows = append(rows, E11AblationRow{
			Name:      "fixed generators (enables O(1) revocation)",
			Baseline:  perMsg,
			Optimized: fixed,
			Speedup:   ratio(perMsg, fixed),
			Detail:    "sign+verify; trade-off: shared bases across signatures",
		})
	}

	// --- Compressed signature encoding (bytes, not time). ---------------
	{
		rows = append(rows, E11AblationRow{
			Name:      "compressed signature encoding",
			Baseline:  time.Duration(sgs.SignatureSize),        // bytes, reported via Detail
			Optimized: time.Duration(sgs.CompactSignatureSize), // bytes
			Speedup:   float64(sgs.SignatureSize) / float64(sgs.CompactSignatureSize),
			Detail:    "bytes on the wire (Baseline/Optimized fields carry byte counts)",
		})
	}
	return rows, nil
}

// e11Repeats is how many times each timed arm runs. The median repeat is
// reported, so one disturbed repeat cannot flip a ratio.
const e11Repeats = 5

// e11MinRepeat is the least time one repeat runs for, so each arm's
// per-call figure averages over many calls.
const e11MinRepeat = 100 * time.Millisecond

// timeArms measures the arms in e11Repeats repeats. Within a repeat the
// arms take turns call by call, until every arm has made at least iters
// calls and the repeat has run for e11MinRepeat, so load that comes and
// goes while the repeat runs lands on all arms alike. It returns each
// arm's median per-call duration over the repeats. The goroutine is
// locked to its OS thread and timed by that thread's CPU time where the
// platform reports it (wall time elsewhere), which leaves out the time
// the thread sat descheduled by parallel load.
func timeArms(iters int, arms ...func() error) ([]time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	clock := func() time.Duration { d, _ := threadCPU(); return d }
	if _, ok := threadCPU(); !ok {
		t0 := time.Now()
		clock = func() time.Duration { return time.Since(t0) }
	}

	samples := make([][]time.Duration, len(arms))
	for rep := 0; rep < e11Repeats; rep++ {
		spent := make([]time.Duration, len(arms))
		start := clock()
		n := 0
		for ; n < iters || clock()-start < e11MinRepeat; n++ {
			for a, arm := range arms {
				t := clock()
				if err := arm(); err != nil {
					return nil, err
				}
				spent[a] += clock() - t
			}
		}
		for a := range arms {
			samples[a] = append(samples[a], spent[a]/time.Duration(n))
		}
	}
	out := make([]time.Duration, len(arms))
	for a := range arms {
		out[a] = median(samples[a])
	}
	return out, nil
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
