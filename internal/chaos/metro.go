package chaos

import (
	"context"
	"errors"
	"net"
	"slices"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
)

// MetroSoakConfig scripts the metro roaming soak: a multi-router
// backbone under sustained link faults, a roaming wave of ticket
// handoffs, one router's backbone partitioned mid-wave, and a final
// anti-rollback probe against every router.
type MetroSoakConfig struct {
	// Routers (≥3, so the partition leaves a connected remainder) and
	// Users size the metro; Moves is handoffs per user. Defaults 8 / 200 / 3.
	Routers int
	Users   int
	Moves   int
	// Seed drives every fault stream. Default 1.
	Seed int64
	// Faults is the per-direction schedule on every backbone link during
	// the wave. Default: 5% drop, 3% corrupt, 3% duplicate, 2% reorder.
	// The user-facing plane stays clean — the soak measures roaming over
	// a degraded backbone, not client-link healing (chaos-soak does that).
	Faults FaultPlan
	// PartitionDelay is how long into the wave the partition trips;
	// PartitionLen is how long router 0's backbone stays blackholed.
	// Defaults 300ms / 2s.
	PartitionDelay time.Duration
	PartitionLen   time.Duration
	// Logf, when set, receives phase-by-phase progress.
	Logf func(format string, args ...any)
}

func (c MetroSoakConfig) withDefaults() MetroSoakConfig {
	if c.Routers < 3 {
		c.Routers = 8
	}
	setDefault(&c.Users, 200)
	setDefault(&c.Moves, 3)
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Faults == (FaultPlan{}) {
		c.Faults = FaultPlan{Drop: 0.05, Corrupt: 0.03, Duplicate: 0.03, Reorder: 0.02}
	}
	setDefault(&c.PartitionDelay, 300*time.Millisecond)
	setDefault(&c.PartitionLen, 2*time.Second)
	return c
}

// MetroSoakReport is the outcome of one metro soak.
type MetroSoakReport struct {
	Routers int `json:"routers"`
	Users   int `json:"users"`
	Moves   int `json:"moves"`

	// Wave is the roaming harness's own report (pairings, resumes,
	// handoffs, relayed frames, delivery).
	Wave *backbone.MetroReport `json:"wave"`

	// Injected sums the fault counters over every backbone socket.
	Injected Counters `json:"injected"`
	// PartitionedRouter is the router whose backbone was blackholed.
	PartitionedRouter string `json:"partitioned_router"`

	// RollbacksRefused counts routers that refused the stale revocation
	// bundle re-offer; it must equal Routers.
	RollbacksRefused int `json:"rollbacks_refused"`

	Violations []string `json:"violations,omitempty"`
}

// Failed reports whether the run violated any invariant.
func (r *MetroSoakReport) Failed() bool { return len(r.Violations) > 0 }

// RunMetroSoak executes the metro roaming acceptance drill:
//
//  1. provision an N-router metro with a shared STEK ring, every
//     backbone socket wrapped in seeded fault injection;
//  2. roam every user through Moves cross-router ticket handoffs while
//     the backbone drops, corrupts, duplicates and reorders datagrams;
//  3. PartitionDelay into the wave, blackhole router 0's backbone for
//     PartitionLen — handoffs away from it must still succeed, with the
//     grace-window forwarding converging only after the heal;
//  4. after the wave, advance the revocation epoch everywhere and
//     re-offer the original bundles: every router must refuse the
//     rollback.
//
// 100% session continuity is required: exactly one pairing per user,
// every move riding a ticket, zero resume fallbacks.
func RunMetroSoak(cfg MetroSoakConfig) (*MetroSoakReport, error) {
	cfg = cfg.withDefaults()
	logf := logger(cfg.Logf)
	rep := &MetroSoakReport{Routers: cfg.Routers, Users: cfg.Users, Moves: cfg.Moves}

	faults := metrics.NewRegistry()
	conns := make([]*Conn, cfg.Routers)
	m, err := backbone.StartMetro(backbone.MetroConfig{
		Routers:        cfg.Routers,
		Users:          cfg.Users,
		Moves:          cfg.Moves,
		GossipInterval: 50 * time.Millisecond,
		GraceWindow:    60 * time.Second,
		OwnerWait:      cfg.PartitionDelay + cfg.PartitionLen + 30*time.Second,
		WrapBackbone: func(i int, conn net.PacketConn) net.PacketConn {
			conns[i] = WrapInRegistry(conn, cfg.Faults, cfg.Faults, cfg.Seed+int64(i), faults)
			return conns[i]
		},
	}, nil)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	logf("chaos: metro up: %d routers, %d users, faults %+v", cfg.Routers, cfg.Users, cfg.Faults)

	// Trip the partition mid-wave: router 0 falls off the backbone, its
	// user-facing plane stays up.
	rep.PartitionedRouter = m.Nodes[0].ID()
	partition := time.AfterFunc(cfg.PartitionDelay, func() {
		logf("chaos: partitioning %s's backbone for %v", rep.PartitionedRouter, cfg.PartitionLen)
		conns[0].PartitionFor(cfg.PartitionLen)
	})
	defer partition.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	wave, err := m.RoamingWave(ctx)
	if err != nil {
		return nil, err
	}
	rep.Wave = wave
	v := Verdict{Violations: slices.Clone(wave.Violations)}
	logf("chaos: wave done: %d pairings, %d resumed, %d handoffs in, %d frames relayed",
		wave.Pairings, wave.Resumed, wave.HandoffsIn, wave.FramesRelayed)

	rep.Injected = newFaultCounters(faults).load()
	if rep.Injected.Dropped+rep.Injected.Corrupted+rep.Injected.Duplicated == 0 {
		v.violate("no faults were injected — the soak exercised nothing")
	}
	if rep.Injected.PartitionDrops == 0 {
		v.violate("the backbone partition never dropped a datagram")
	}

	// The forwarding plane must have converged across the partition: every
	// adopted handoff was eventually announced to (and counted by) the
	// previous router.
	if wave.HandoffsOut != wave.HandoffsIn {
		v.violate("handoffs_out = %d never converged to handoffs_in = %d after heal",
			wave.HandoffsOut, wave.HandoffsIn)
	}

	// Anti-rollback on every router: advance the epoch fleet-wide, then
	// re-offer the bundles the metro booted with. (The bump happens after
	// the wave — advancing mid-wave would legitimately stale the ticket
	// pins and break the zero-extra-pairings invariant being measured.)
	n := m.Net
	if err := revokeSpares(n.NO, n.GM.ID(), n.Users, 0, 1); err != nil {
		return nil, err
	}
	crl, url, err := n.NO.RevocationBundles()
	if err != nil {
		return nil, err
	}
	for _, r := range n.Routers {
		if err := r.UpdateRevocations(crl, url); err != nil {
			return nil, err
		}
	}
	for i, r := range n.Routers {
		err := r.UpdateRevocations(n.InitialCRL, n.InitialURL)
		switch {
		case err == nil:
			v.violate("router %d accepted a revocation rollback", i)
		case !errors.Is(err, revocation.ErrRollback):
			v.violate("router %d refused rollback with the wrong error: %v", i, err)
		default:
			rep.RollbacksRefused++
		}
	}
	logf("chaos: %d/%d routers refused the revocation rollback", rep.RollbacksRefused, cfg.Routers)
	rep.Violations = v.Violations
	return rep, nil
}
