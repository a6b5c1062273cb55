package chaos

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/wire"
)

// ErrSpoofedBindUnsupported reports that the host cannot bind secondary
// loopback addresses (127.0.x.y), which the attacker fleet needs for
// per-source rate-limit buckets. Linux supports it out of the box.
var ErrSpoofedBindUnsupported = errors.New("chaos: cannot bind spoofed loopback sources")

// AttackConfig scripts one adaptive-DoS attack soak: a seeded attacker
// fleet flooding the attach ingress from spoofed sources while a
// legitimate fleet attaches and keeps sessions alive through the storm.
type AttackConfig struct {
	// LegitUsers is the legitimate fleet size; half attach before the
	// storm, half must attach through it. Default 8.
	LegitUsers int
	// Flooders is how many attacker goroutines spray garbage and
	// solution-less access requests. Default 3.
	Flooders int
	// SpoofedSources is how many distinct source IPs each flooder rotates
	// through. Default 8.
	SpoofedSources int
	// Replayers is how many distinct spoofed sources replay one solved
	// puzzle (the solution-replay attack). Default 6.
	Replayers int
	// Seed drives every pseudo-random stream. Default 1.
	Seed int64
	// StormLen is how long the flood lasts. Default 2s.
	StormLen time.Duration
	// Policy is the adaptive defense installed on the router. The zero
	// value gets a fast test policy (base 3, cap 8, 150ms ratchet steps).
	Policy core.DoSPolicy
	// RateLimitPerSec arms the server's per-source ingress limiter — the
	// drop stream is the controller's main load signal. Default 50.
	RateLimitPerSec float64
	// DecayBound caps how long after the storm the demanded difficulty
	// may take to return to zero. Default Window + QuietPeriod + 3s.
	DecayBound time.Duration
	// SettleTimeout bounds each convergence wait. Default 60s.
	SettleTimeout time.Duration
	// Keepalive is the legit fleet's keepalive interval. Default 150ms.
	Keepalive time.Duration
	// Logf, when set, receives phase-by-phase progress.
	Logf func(format string, args ...any)
}

func (c AttackConfig) withDefaults() AttackConfig {
	if c.LegitUsers < 2 {
		c.LegitUsers = 8
	}
	setDefault(&c.Flooders, 3)
	setDefault(&c.SpoofedSources, 8)
	if c.Replayers < 2 {
		c.Replayers = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	setDefault(&c.StormLen, 2*time.Second)
	if !c.Policy.Enabled {
		c.Policy = core.DoSPolicy{
			Enabled:            true,
			Window:             1500 * time.Millisecond,
			SuspicionThreshold: 8,
			QuietPeriod:        time.Second,
			BaseDifficulty:     3,
			MaxDifficulty:      8,
			StepInterval:       150 * time.Millisecond,
			DecayInterval:      200 * time.Millisecond,
		}
	}
	if c.RateLimitPerSec <= 0 {
		// Low enough that each spoofed source's flood rate exceeds it by
		// an order of magnitude (the drop stream drives the ratchet), high
		// enough that the legit fleet — which shares one loopback source —
		// never exhausts its bucket with handshake traffic.
		c.RateLimitPerSec = 50
	}
	setDefault(&c.DecayBound, max(c.Policy.Window+c.Policy.QuietPeriod+3*time.Second, 5*time.Second))
	setDefault(&c.SettleTimeout, 60*time.Second)
	setDefault(&c.Keepalive, 150*time.Millisecond)
	return c
}

// AttackReport is the outcome of an attack soak. A clean run has an
// empty Violations list.
type AttackReport struct {
	LegitUsers int

	// Attack volume and what it bought.
	AttackerDatagrams int64
	AttackerSolved    int64

	// Controller trajectory.
	BaseDifficulty  uint8
	PeakDifficulty  uint8
	FinalDifficulty uint8
	DecayedIn       time.Duration

	// Legit fleet outcome.
	LegitAlive      int
	KeepalivesAcked int64

	// Server-side evidence.
	PuzzlesIssued    int64
	PuzzlesVerified  int64
	PuzzlesRejected  int64
	SolutionReplays  int64
	RatelimitDropped int64

	// Pairing economics: every expensive verification must be accounted
	// for by an established session (plus a small legit-retry slack) —
	// the flood itself buys none.
	SessionsEstablished    int
	ExpensiveVerifications int

	// Measured attacker cost (mean solve attempts over seeded trials) at
	// the base and peak demanded difficulties.
	SolveCostBase uint64
	SolveCostPeak uint64

	// Anti-rollback evidence: the URL epoch is bumped mid-storm and every
	// surviving client must converge onto it.
	InitialURLEpoch uint64
	FinalURLEpoch   uint64

	Verdict
}

// garbageAccessFrame is an undecodable access-request datagram — the
// cheapest possible forgery.
func garbageAccessFrame() []byte {
	frame, err := transport.EncodeFrame(transport.KindAccessRequest, []byte("peace attack soak garbage m2"))
	if err != nil {
		panic(err)
	}
	return frame
}

// skeletonAccessFrame is a solution-less datagram shaped like an M.2 at
// the wire-skeleton level (the puzzle gate's peek parses it) but carrying
// junk where the curve points and signature belong. Before suspicion
// trips it dies in the decoder; after, it exercises the RejectPuzzle
// reply path at flood rate.
func skeletonAccessFrame(prng *mrand.Rand) []byte {
	junk := func(n int) []byte {
		b := make([]byte, n)
		prng.Read(b)
		return b
	}
	w := wire.NewWriter(256)
	w.BytesField(junk(64)) // where g^{r_j} would be
	w.BytesField(junk(64)) // where g^{r_R} would be
	w.Time(time.Now())
	w.BytesField(junk(96)) // where the group signature would be
	w.Byte(0)              // no solution
	frame, err := transport.EncodeFrame(transport.KindAccessRequest, w.Bytes())
	if err != nil {
		panic(err)
	}
	return frame
}

// replayResumeFrame grafts a solved puzzle triple onto a garbage resume
// request: it passes the puzzle gate's verification (the solution is
// genuine) and then dies cheaply at the ticket opener — unless the
// replay table has seen the triple from another source first.
func replayResumeFrame(prng *mrand.Rand, p *puzzle.Puzzle, solution uint64) []byte {
	req := &transport.ResumeRequest{
		Ticket:           []byte("peace attack soak bogus ticket"),
		Timestamp:        time.Now(),
		HasSolution:      true,
		Solution:         solution,
		PuzzleIssuedAt:   p.IssuedAt,
		PuzzleDifficulty: p.Difficulty,
	}
	prng.Read(req.Nonce[:])
	frame, err := transport.EncodeMessage(req)
	if err != nil {
		panic(err)
	}
	return frame
}

// spoofBlock is how many spoofed sources one 127.0.x.0/24 block offers
// (127.0.x.1 to 127.0.x.254), and how many such blocks 127.0.0.0/16 has
// past 127.0.0.0/24.
const spoofBlock = 254

// listenSpoofed binds sources first..first+n-1 of a block, on secondary
// loopback addresses 127.0.<1+block>.<1+source>, so each attacker source
// lands in its own rate-limit bucket, the way a spoofed-source flood
// does on a real ingress.
func listenSpoofed(block, first, n int) ([]net.PacketConn, error) {
	conns := make([]net.PacketConn, 0, n)
	for src := first; src < first+n; src++ {
		conn, err := net.ListenPacket("udp", fmt.Sprintf("127.0.%d.%d:0", 1+block, 1+src))
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("%w: %v", ErrSpoofedBindUnsupported, err)
		}
		conns = append(conns, conn)
	}
	return conns, nil
}

func closeAll(conns []net.PacketConn) {
	for _, c := range conns {
		_ = c.Close()
	}
}

// flood sprays garbage and skeleton M.2s from every conn at addr until
// ctx ends, pausing 1ms after every pace rounds, then closes the conns.
func flood(ctx context.Context, addr net.Addr, conns []net.PacketConn, seed int64, pace int, sent *atomic.Int64) {
	defer closeAll(conns)
	prng := mrand.New(mrand.NewSource(seed))
	garbage := garbageAccessFrame()
	for i := 0; ctx.Err() == nil; i++ {
		frame := garbage
		if i%2 == 1 {
			frame = skeletonAccessFrame(prng)
		}
		for _, c := range conns {
			if _, err := c.WriteTo(frame, addr); err == nil {
				sent.Add(1)
			}
		}
		if i%pace == pace-1 {
			time.Sleep(time.Millisecond)
		}
	}
}

// validate rejects attacker fleets larger than the spoofable address
// space: flooder f floods from block f, the replayer from the block
// after the last flooder.
func (c AttackConfig) validate() error {
	switch {
	case c.Flooders >= spoofBlock:
		return fmt.Errorf("chaos: %d flooders, at most %d (one spoofed address block each, plus the replayer's)", c.Flooders, spoofBlock-1)
	case c.SpoofedSources > spoofBlock:
		return fmt.Errorf("chaos: %d spoofed sources per flooder, at most %d", c.SpoofedSources, spoofBlock)
	case c.Replayers > spoofBlock:
		return fmt.Errorf("chaos: %d replayers, at most %d", c.Replayers, spoofBlock)
	}
	return nil
}

// measureSolveCost returns the mean number of digest evaluations a
// seeded solver spends on fresh puzzles of the given difficulty.
func measureSolveCost(seed int64, difficulty uint8, trials int) uint64 {
	prng := mrand.New(mrand.NewSource(seed))
	var total uint64
	for i := 0; i < trials; i++ {
		p, err := puzzle.New(prng, difficulty, "cost-probe", time.Now())
		if err != nil {
			panic(err)
		}
		_, attempts, _ := p.SolveFrom(prng.Uint64(), 0)
		total += attempts
	}
	return total / uint64(trials)
}

// RunAttackSoak executes the adaptive-DoS attack scenario:
//
//  1. provision a network with the adaptive puzzle policy, start the
//     server with its ingress rate limiter armed, and attach half the
//     legitimate fleet;
//  2. storm: seeded flooders spray garbage and solution-less M.2s from
//     distinct spoofed loopback sources; the other half of the fleet
//     starts attaching mid-flood; the revocation epoch is bumped
//     mid-storm; once the router demands puzzles, a replay attacker
//     solves one challenge and sprays the same solution from many
//     sources;
//  3. the storm stops; the demanded difficulty must decay to zero within
//     DecayBound;
//  4. invariants: the whole legit fleet (above the 95% floor) holds
//     working, key-agreeing sessions; the difficulty ratcheted at least
//     two steps above base during the storm; measured attacker cost
//     scales with 2^difficulty; cross-source solution replays were
//     refused; the flood bought (almost) no pairings; every client
//     converged onto the bumped revocation epoch.
func RunAttackSoak(cfg AttackConfig) (*AttackReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &AttackReport{LegitUsers: cfg.LegitUsers, BaseDifficulty: cfg.Policy.BaseDifficulty}
	f, err := newFleet(fleetSpec{
		router: "MR-ATTACK", group: "grp-attack", users: cfg.LegitUsers, dos: cfg.Policy,
		server: transport.ServerConfig{
			BootEpoch:         1,
			RateLimitPerSec:   cfg.RateLimitPerSec,
			DoSSampleInterval: 25 * time.Millisecond,
		},
		client: soakClient, clientSeed: cfg.Seed * 2_000_003,
		maintain: maintained(cfg.Keepalive, cfg.SettleTimeout, 3, 50*time.Millisecond),
		settle:   cfg.SettleTimeout, logf: cfg.Logf,
	}, &rep.Verdict)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep.InitialURLEpoch = f.urlEpoch()
	router := f.ln.Router

	// Phase 1: half the fleet attaches on a calm network.
	preStorm := max(cfg.LegitUsers/2, 1)
	if err := f.start(0, preStorm); err != nil {
		return nil, err
	}
	f.logf("attack: attaching %d/%d clients pre-storm", preStorm, cfg.LegitUsers)
	if !f.settle("pre-storm fleet attach", func() bool { return f.established(1) == preStorm }) {
		return rep, nil
	}
	if got := router.RequiredDifficulty(); got != 0 {
		rep.violate("calm network already demands difficulty %d", got)
	}

	// Phase 2: the storm. Flooders spray from spoofed sources; the rest
	// of the fleet attaches through it; a replay attacker waits for the
	// first challenge.
	stormCtx, stopStorm := context.WithCancel(context.Background())
	var attackers sync.WaitGroup
	defer func() {
		stopStorm()
		attackers.Wait()
	}()
	var attackerDatagrams atomic.Int64
	var attackerSolved atomic.Int64

	for fl := 0; fl < cfg.Flooders; fl++ {
		conns, err := listenSpoofed(fl, 0, cfg.SpoofedSources)
		if err != nil {
			return nil, err
		}
		attackers.Add(1)
		go func() {
			defer attackers.Done()
			flood(stormCtx, f.addr, conns, cfg.Seed*5_000_011+int64(fl), 16, &attackerDatagrams)
		}()
	}

	// The replay attacker: solve one genuine challenge, spray the same
	// solution from many sources. Only the first source may be admitted.
	replayers, err := listenSpoofed(cfg.Flooders, 0, cfg.Replayers)
	if err != nil {
		return nil, err
	}
	attackers.Add(1)
	go func() {
		defer attackers.Done()
		defer closeAll(replayers)
		prng := mrand.New(mrand.NewSource(cfg.Seed * 7_000_003))
		// The challenge rides every beacon and RejectPuzzle reply, so an
		// attacker sniffing the broadcast medium has it the moment defense
		// trips; reading it off the router models that without racing the
		// flood's kernel-level receive drops. The attacker re-solves the
		// *current* challenge every round: the controller ratchets while
		// the storm runs, and a solution pinned to an already-superseded
		// difficulty would be refused as insufficient before the replay
		// table ever saw it. Re-solving keeps each round's spray
		// verifiable, so the refusals the run must witness are the
		// cross-source ones.
		for stormCtx.Err() == nil {
			p := router.CurrentPuzzle()
			if p == nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			sol, _, ok := p.SolveFrom(prng.Uint64(), 0)
			if !ok {
				continue
			}
			attackerSolved.Add(1)
			frame := replayResumeFrame(prng, p, sol)
			for _, c := range replayers {
				if _, err := c.WriteTo(frame, f.addr); err == nil {
					attackerDatagrams.Add(1)
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	// Peak-difficulty tracker.
	var peak atomic.Uint32
	attackers.Add(1)
	go func() {
		defer attackers.Done()
		for stormCtx.Err() == nil {
			if d := uint32(router.RequiredDifficulty()); d > peak.Load() {
				peak.Store(d)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	f.logf("attack: storm started (%d flooders × %d sources, %v)", cfg.Flooders, cfg.SpoofedSources, cfg.StormLen)
	// Mid-storm: the revocation epoch moves, then the rest of the fleet
	// attaches through the flood — every joiner signs against the bumped
	// list, so a joiner left on the old epoch would be rollback evidence.
	time.Sleep(cfg.StormLen / 4)
	if err := f.bumpRevocation(0, 1); err != nil {
		return nil, err
	}
	rep.FinalURLEpoch = f.urlEpoch()
	if err := f.start(preStorm, cfg.LegitUsers); err != nil {
		return nil, err
	}
	time.Sleep(3 * cfg.StormLen / 4)

	stopStorm()
	attackers.Wait()
	stormEnd := time.Now()
	rep.AttackerDatagrams = attackerDatagrams.Load()
	rep.AttackerSolved = attackerSolved.Load()
	rep.PeakDifficulty = uint8(peak.Load())
	f.logf("attack: storm over (%d attacker datagrams, peak difficulty %d), decaying",
		rep.AttackerDatagrams, rep.PeakDifficulty)

	// Phase 3: the whole fleet must be (or get) established, and the
	// demanded difficulty must return to zero within the bound.
	f.settle("full fleet attach", func() bool { return f.established(1) == cfg.LegitUsers })
	decayDeadline := stormEnd.Add(cfg.DecayBound)
	for time.Now().Before(decayDeadline) {
		if router.RequiredDifficulty() == 0 && !router.DoSDefenseActive() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep.DecayedIn = time.Since(stormEnd)
	rep.FinalDifficulty = router.RequiredDifficulty()

	// Harvest.
	for i, cl := range f.clients {
		rep.KeepalivesAcked += cl.Stats().KeepalivesAcked()
		// Anti-rollback: nobody regresses below the epoch they started
		// with, and every mid-storm joiner — whose whole attach happened
		// after the bump — must have converged onto the bumped epoch.
		// (Pre-storm clients that never re-attached legitimately stay on
		// the epoch they were verified against.)
		got := f.users[i].RevocationEpoch(revocation.ListURL)
		if got < rep.InitialURLEpoch || got > rep.FinalURLEpoch {
			rep.violate("client %d URL epoch %d outside [%d, %d] (rollback)", i, got, rep.InitialURLEpoch, rep.FinalURLEpoch)
		}
		if i >= preStorm && got != rep.FinalURLEpoch {
			rep.violate("mid-storm joiner %d attached against URL epoch %d, want %d (rollback or missed sync)",
				i, got, rep.FinalURLEpoch)
		}
		if sess := cl.Session(); sess != nil && f.keysAgree(i, sess) {
			rep.LegitAlive++
		}
	}
	st := f.srv.Stats()
	rep.PuzzlesIssued = st.DoSPuzzlesIssued()
	rep.PuzzlesVerified = st.DoSPuzzlesVerified()
	rep.PuzzlesRejected = st.DoSPuzzlesRejected()
	rep.SolutionReplays = st.DoSSolutionReplays()
	rep.RatelimitDropped = st.RatelimitDropped()
	rstats := router.Stats()
	rep.SessionsEstablished = rstats.SessionsEstablished
	rep.ExpensiveVerifications = rstats.ExpensiveVerifications

	// Judge.
	if rep.PeakDifficulty == 0 {
		rep.violate("suspicion never tripped under a %d-datagram flood", rep.AttackerDatagrams)
	}
	if rep.PeakDifficulty < rep.BaseDifficulty+2 {
		rep.violate("difficulty peaked at %d, want >= base %d + 2 ratchet steps",
			rep.PeakDifficulty, rep.BaseDifficulty)
	}
	if rep.FinalDifficulty != 0 || router.DoSDefenseActive() {
		rep.violate("difficulty still %d (defense active) %v after the storm (bound %v)",
			rep.FinalDifficulty, rep.DecayedIn, cfg.DecayBound)
	}
	if floor := (cfg.LegitUsers*95 + 99) / 100; rep.LegitAlive < floor {
		rep.violate("only %d/%d legit clients hold working sessions (floor %d)",
			rep.LegitAlive, cfg.LegitUsers, floor)
	}
	if rep.KeepalivesAcked == 0 {
		rep.violate("no keepalive was acknowledged through the storm")
	}
	if rep.RatelimitDropped == 0 {
		rep.violate("the flood never hit the rate limiter")
	}
	if rep.PuzzlesIssued == 0 || rep.PuzzlesVerified == 0 {
		rep.violate("puzzle loop inert: issued %d verified %d", rep.PuzzlesIssued, rep.PuzzlesVerified)
	}
	if rep.AttackerSolved == 0 {
		rep.violate("the replay attacker never obtained and solved a challenge")
	} else if rep.SolutionReplays == 0 {
		rep.violate("cross-source solution replays were never refused")
	}
	// Pairing economics: the flood must not buy verifications. Allow a
	// small slack for legitimate attaches that raced the revocation bump.
	if slack := cfg.LegitUsers; rep.ExpensiveVerifications > rep.SessionsEstablished+slack {
		rep.violate("%d expensive verifications for %d sessions: the flood bought pairings",
			rep.ExpensiveVerifications, rep.SessionsEstablished)
	}
	// Attacker cost scaling: mean solve work grows as 2^difficulty.
	if rep.PeakDifficulty > rep.BaseDifficulty {
		const trials = 32
		rep.SolveCostBase = measureSolveCost(cfg.Seed*11_000_027, rep.BaseDifficulty, trials)
		rep.SolveCostPeak = measureSolveCost(cfg.Seed*13_000_021, rep.PeakDifficulty, trials)
		want := rep.SolveCostBase * (1 << (rep.PeakDifficulty - rep.BaseDifficulty)) / 4
		if rep.SolveCostPeak < want || rep.SolveCostPeak <= rep.SolveCostBase {
			rep.violate("solve cost did not scale: %d attempts at difficulty %d vs %d at %d (want >= %d)",
				rep.SolveCostPeak, rep.PeakDifficulty, rep.SolveCostBase, rep.BaseDifficulty, want)
		}
	}
	if rep.FinalURLEpoch <= rep.InitialURLEpoch {
		rep.violate("revocation bump did not advance the URL epoch (%d -> %d)",
			rep.InitialURLEpoch, rep.FinalURLEpoch)
	}
	return rep, nil
}
