package chaos

import (
	mrand "math/rand"
	"time"

	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/transport"
)

// SoakConfig scripts one chaos soak: a fleet of self-healing clients
// against a live server, with sustained datagram faults, a mid-run
// revocation bump, a server restart and a timed partition.
type SoakConfig struct {
	// Users is the fleet size. Default 24.
	Users int
	// Seed drives every pseudo-random stream in the run. Default 1.
	Seed int64
	// Faults is the per-direction schedule installed on every client link
	// during the storm phase. Default: 10% drop, 5% corrupt, 2% duplicate,
	// 2% reorder.
	Faults FaultPlan
	// StormLen is how long the fleet soaks under faults before the restart.
	// Default 1500ms.
	StormLen time.Duration
	// PartitionLen is how long the partitioned subset stays blackholed
	// after the restart. Default 1s.
	PartitionLen time.Duration
	// PartitionFrac is the fraction of clients partitioned. Default 0.3.
	PartitionFrac float64
	// SettleTimeout bounds each convergence wait (initial attach, final
	// re-establishment). Default 90s.
	SettleTimeout time.Duration
	// Keepalive is the fleet's keepalive interval. Default 150ms.
	Keepalive time.Duration
	// Logf, when set, receives phase-by-phase progress.
	Logf func(format string, args ...any)
}

func (c SoakConfig) withDefaults() SoakConfig {
	setDefault(&c.Users, 24)
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Faults == (FaultPlan{}) {
		c.Faults = FaultPlan{Drop: 0.10, Corrupt: 0.05, Duplicate: 0.02, Reorder: 0.02}
	}
	setDefault(&c.StormLen, 1500*time.Millisecond)
	setDefault(&c.PartitionLen, time.Second)
	setDefault(&c.PartitionFrac, 0.3)
	c.PartitionFrac = min(c.PartitionFrac, 1)
	setDefault(&c.SettleTimeout, 90*time.Second)
	setDefault(&c.Keepalive, 150*time.Millisecond)
	return c
}

// SoakReport is the outcome of a soak run: aggregate fleet and server
// counters plus every invariant violation found. A clean run has an empty
// Violations list.
type SoakReport struct {
	Users          int
	FinalBootEpoch uint64
	Established    int

	// Fleet self-healing counters, summed.
	Reattaches       int64
	RestartsDetected int64
	DeadPeerEvents   int64
	KeepalivesAcked  int64
	AttachAttempts   int64

	// Injected faults, summed over all client links.
	Injected Counters

	// Server-side evidence that the chaos reached it.
	ServerDecodeErrors   int64
	DuplicatesSuppressed int64
	DrainRejects         int64

	// Router totals across both incarnations.
	SessionsEstablished    int
	ExpensiveVerifications int

	// Revocation anti-rollback evidence.
	InitialURLEpoch uint64
	FinalURLEpoch   uint64

	Verdict
}

// RunSoak executes the scripted chaos scenario:
//
//  1. provision a network, start the server (boot epoch 1), launch every
//     client's Maintain loop over a fault-injecting link;
//  2. wait for the whole fleet to attach, then soak under faults for
//     StormLen of keepalive traffic;
//  3. bump the revocation epoch (a key is revoked mid-run), then drain
//     and restart the server — volatile session state is lost, the boot
//     epoch changes, durable state (keys, certificates, revocation)
//     survives;
//  4. blackhole a fraction of the fleet for PartitionLen while the rest
//     re-attaches through the still-faulty network;
//  5. heal the links and wait for every client to re-establish against
//     the new incarnation, then check the invariants.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	rep := &SoakReport{Users: cfg.Users}
	const epoch1, epoch2 = 1, 2
	f, err := newFleet(fleetSpec{
		router: "MR-CHAOS", group: "grp-chaos", users: cfg.Users,
		server: transport.ServerConfig{BootEpoch: epoch1},
		in:     cfg.Faults, out: cfg.Faults, linkSeed: cfg.Seed * 1_000_003,
		client: soakClient, clientSeed: cfg.Seed * 2_000_003,
		maintain: maintained(cfg.Keepalive, cfg.SettleTimeout, 3, 50*time.Millisecond),
		settle:   cfg.SettleTimeout, logf: cfg.Logf,
	}, &rep.Verdict)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep.InitialURLEpoch = f.urlEpoch()
	if err := f.start(0, cfg.Users); err != nil {
		return nil, err
	}

	// Phase 1+2: attach through the faulty network, then soak.
	f.logf("chaos: attaching %d clients through faults %+v", cfg.Users, cfg.Faults)
	f.settle("initial fleet attach", func() bool { return f.established(epoch1) == cfg.Users })
	f.logf("chaos: fleet attached, storming for %v", cfg.StormLen)
	time.Sleep(cfg.StormLen)

	// Phase 3: revocation bump, then drain + restart.
	if err := f.bumpRevocation(0, 1); err != nil {
		return nil, err
	}
	rep.FinalURLEpoch = f.urlEpoch()
	if rep.FinalURLEpoch <= rep.InitialURLEpoch {
		rep.violate("revocation bump did not advance the URL epoch (%d -> %d)", rep.InitialURLEpoch, rep.FinalURLEpoch)
	}
	f.logf("chaos: revocation bumped to epoch %d, restarting server", rep.FinalURLEpoch)
	if err := f.restart(epoch2, true); err != nil {
		return nil, err
	}

	// Phase 4: partition a deterministic subset while the fleet re-attaches.
	prng := mrand.New(mrand.NewSource(cfg.Seed * 3_000_017))
	nPart := int(float64(cfg.Users) * cfg.PartitionFrac)
	for _, i := range prng.Perm(cfg.Users)[:nPart] {
		f.links[i].PartitionFor(cfg.PartitionLen)
	}
	f.logf("chaos: partitioned %d/%d clients for %v", nPart, cfg.Users, cfg.PartitionLen)
	time.Sleep(cfg.PartitionLen)

	// Phase 5: heal the links and wait for full recovery.
	for _, l := range f.links {
		l.SetPlans(FaultPlan{}, FaultPlan{})
	}
	f.logf("chaos: links healed, settling")
	f.settle("fleet re-established on new incarnation", func() bool { return f.established(epoch2) == cfg.Users })

	// Harvest and judge.
	rep.FinalBootEpoch = epoch2
	rep.Established = f.established(epoch2)
	if rep.Established != cfg.Users {
		rep.violate("%d/%d clients re-established after restart", rep.Established, cfg.Users)
	}
	for i, cl := range f.clients {
		st := cl.Stats()
		rep.Reattaches += st.Reattaches()
		rep.RestartsDetected += st.RestartsDetected()
		rep.DeadPeerEvents += st.DeadPeerEvents()
		rep.KeepalivesAcked += st.KeepalivesAcked()
		rep.AttachAttempts += st.AttachAttempts()

		// Anti-rollback: every surviving client must have converged onto
		// the bumped epoch despite restart and partition racing the bump.
		if got := f.users[i].RevocationEpoch(revocation.ListURL); got != rep.FinalURLEpoch {
			rep.violate("client %d URL epoch %d, want %d (rollback or missed sync)", i, got, rep.FinalURLEpoch)
		}
		if sess := cl.Session(); sess != nil {
			f.keysAgree(i, sess)
		}
	}
	rep.Injected = f.injected()
	rep.ServerDecodeErrors = f.counter("decode_errors")
	rep.DuplicatesSuppressed = f.counter("duplicates")
	rep.DrainRejects = f.counter("drain_rejects")
	stats := f.ln.Router.Stats()
	rep.SessionsEstablished = stats.SessionsEstablished
	rep.ExpensiveVerifications = stats.ExpensiveVerifications

	// The chaos must actually have happened, or the run proves nothing.
	if rep.Injected.Dropped == 0 || rep.Injected.Corrupted == 0 || rep.Injected.Duplicated == 0 {
		rep.violate("fault injection inert: %+v", rep.Injected)
	}
	if rep.Injected.PartitionDrops == 0 {
		rep.violate("partition blackholed nothing")
	}
	if rep.ServerDecodeErrors == 0 {
		rep.violate("no corrupted frame ever reached a server decoder")
	}
	if rep.Reattaches < int64(cfg.Users) {
		rep.violate("only %d re-attach cycles for %d clients across a restart", rep.Reattaches, cfg.Users)
	}
	if rep.KeepalivesAcked == 0 {
		rep.violate("no keepalive was ever acknowledged")
	}
	return rep, nil
}
