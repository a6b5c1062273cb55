package chaos

import (
	"crypto/rand"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport"
)

// RestartSoakConfig scripts the resumption-under-restart soak: a fleet of
// self-healing clients rides a server through repeated restarts sharing
// one STEK ring, and the invariant under test is that re-attachment stays
// on the symmetric ticket path — the expensive pairing runs once per
// client per STEK retirement, never per restart.
type RestartSoakConfig struct {
	// Users is the fleet size. Default 12.
	Users int
	// Restarts is how many times the server is killed and reincarnated.
	// Default 3.
	Restarts int
	// RotateBeforeRestart, when in [1, Restarts], rotates the STEK ring
	// PAST the grace window (twice) before that restart, retiring every
	// held ticket: the fleet must then fall back to exactly one full
	// handshake each and resume normally afterwards. 0 disables rotation.
	RotateBeforeRestart int
	// Seed de-correlates client jitter streams. Default 1.
	Seed int64
	// Keepalive is the fleet's keepalive interval. Default 100ms.
	Keepalive time.Duration
	// SettleTimeout bounds each convergence wait. Default 90s.
	SettleTimeout time.Duration
	// Logf, when set, receives phase-by-phase progress.
	Logf func(format string, args ...any)
}

func (c RestartSoakConfig) withDefaults() RestartSoakConfig {
	setDefault(&c.Users, 12)
	setDefault(&c.Restarts, 3)
	if c.Seed == 0 {
		c.Seed = 1
	}
	setDefault(&c.Keepalive, 100*time.Millisecond)
	setDefault(&c.SettleTimeout, 90*time.Second)
	return c
}

// RestartSoakReport is the outcome of a restart soak.
type RestartSoakReport struct {
	Users    int
	Restarts int

	// FullHandshakes is the fleet's total completed M.1–M.3 runs;
	// Resumes is the total completed ticket re-attaches.
	FullHandshakes int64
	Resumes        int64
	// ExpensiveVerifications is the router's cumulative pairing count
	// across all incarnations.
	ExpensiveVerifications int
	// SessionsResumed is the router's cumulative resumed-session count.
	SessionsResumed int
	// TicketsIssued sums the ticket counters of every incarnation.
	TicketsIssued int64

	Verdict
}

// RunRestartSoak executes the scripted restart scenario:
//
//  1. provision a network and a STEK ring that will outlive every server
//     incarnation (the operator's persisted ticket key);
//  2. launch the fleet's Maintain loops and wait for the initial full
//     attach — the only pairing each client should ever need;
//  3. Restarts times: kill the server, reboot the router's volatile state
//     (sessions gone), reincarnate on the same address and ring with a
//     new boot epoch, and wait for the whole fleet to re-establish;
//  4. optionally retire the STEK mid-sequence and demand exactly one
//     fallback handshake per client;
//  5. judge: full handshakes ≤ 1 (+1 if rotated) per client, all other
//     re-attaches on the ticket path, keys agreeing end to end.
func RunRestartSoak(cfg RestartSoakConfig) (*RestartSoakReport, error) {
	cfg = cfg.withDefaults()
	rep := &RestartSoakReport{Users: cfg.Users, Restarts: cfg.Restarts}
	ring, err := symcrypto.NewTicketKeyRing(rand.Reader)
	if err != nil {
		return nil, err
	}
	f, err := newFleet(fleetSpec{
		router: "MR-RESTART", group: "grp-restart", users: cfg.Users,
		server: transport.ServerConfig{BootEpoch: 1, TicketKeys: ring},
		client: soakClient, clientSeed: cfg.Seed * 2_000_003,
		maintain: maintained(cfg.Keepalive, cfg.SettleTimeout, 2, 30*time.Millisecond),
		settle:   cfg.SettleTimeout, logf: cfg.Logf,
	}, &rep.Verdict)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.start(0, cfg.Users); err != nil {
		return nil, err
	}

	f.logf("restart-soak: attaching %d clients", cfg.Users)
	f.settle("initial fleet attach", func() bool { return f.established(1) == cfg.Users })

	for k := 1; k <= cfg.Restarts; k++ {
		if k == cfg.RotateBeforeRestart {
			// Rotate past the one-generation grace window: every held
			// ticket's sealing key leaves the ring.
			for range 2 {
				if err := ring.Rotate(rand.Reader); err != nil {
					return nil, err
				}
			}
			f.logf("restart-soak: STEK retired before restart %d", k)
		}
		epoch := uint64(k + 1)
		if err := f.restart(epoch, false); err != nil {
			return nil, err
		}
		f.logf("restart-soak: incarnation %d up, settling", epoch)
		if !f.settle(fmt.Sprintf("fleet re-established on incarnation %d", epoch),
			func() bool { return f.established(epoch) == cfg.Users }) {
			break
		}
	}
	rep.TicketsIssued = f.counter("tickets_issued")

	// Harvest and judge.
	for i, cl := range f.clients {
		st := cl.Stats()
		rep.FullHandshakes += st.AttachSuccesses()
		rep.Resumes += st.ResumeSuccesses()
		if sess := cl.Session(); sess == nil {
			rep.violate("client %d finished detached", i)
		} else {
			f.keysAgree(i, sess)
		}
	}
	stats := f.ln.Router.Stats()
	rep.ExpensiveVerifications = stats.ExpensiveVerifications
	rep.SessionsResumed = stats.SessionsResumed

	// The re-attach economics under test: at most one full handshake per
	// client per STEK retirement — so 1 each without rotation, 2 each with.
	maxFulls := int64(cfg.Users)
	if cfg.RotateBeforeRestart >= 1 && cfg.RotateBeforeRestart <= cfg.Restarts {
		maxFulls = int64(2 * cfg.Users)
	}
	if rep.FullHandshakes > maxFulls {
		rep.violate("%d full handshakes for %d clients across %d restarts (budget %d) — restarts leaked off the ticket path",
			rep.FullHandshakes, cfg.Users, cfg.Restarts, maxFulls)
	}
	if rep.ExpensiveVerifications > int(maxFulls) {
		rep.violate("router ran %d pairings, budget %d", rep.ExpensiveVerifications, maxFulls)
	}
	if want := int64(cfg.Users * cfg.Restarts); rep.Resumes < want-maxFulls {
		rep.violate("only %d resumes across %d restarts of %d clients", rep.Resumes, cfg.Restarts, cfg.Users)
	}
	if rep.SessionsResumed == 0 {
		rep.violate("router adopted no resumed sessions")
	}
	if rep.TicketsIssued < int64(cfg.Users) {
		rep.violate("only %d tickets issued", rep.TicketsIssued)
	}
	return rep, nil
}
