package chaos

import (
	"fmt"
	"net"
	"slices"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/transport"
)

// LoopbackConfig describes one loopback handshake run: N concurrent users
// driving full M.1–M.3 against one router over real UDP sockets, with
// optional induced datagram loss on both directions.
type LoopbackConfig struct {
	// Users is the number of concurrent clients. Default 16.
	Users int
	// Loss is the per-datagram drop probability applied on both the
	// server's and every client's send path (so effective round-trip loss
	// is higher). Zero disables the lossy wrapper.
	Loss float64
	// Seed makes induced loss reproducible: the server's link is seeded
	// Seed, client i's Seed+1+i. Default 1.
	Seed int64
	// AttachTimeout bounds one client's whole handshake. Default 30s.
	AttachTimeout time.Duration
	// Client and Server tune the endpoints.
	Client transport.ClientConfig
	Server transport.ServerConfig
}

func (c LoopbackConfig) withDefaults() LoopbackConfig {
	setDefault(&c.Users, 16)
	if c.Seed == 0 {
		c.Seed = 1
	}
	setDefault(&c.AttachTimeout, 30*time.Second)
	// One registry for the whole fleet: registration is idempotent, so N
	// clients share the same counter handles and the report's client
	// numbers are a single snapshot instead of a hand-rolled sum.
	if c.Client.Metrics == nil {
		c.Client.Metrics = metrics.NewRegistry()
	}
	return c
}

// spec is the fleet of a loopback run; the drop-only plan is the lossy
// radio link, seen by the sender as a successful send.
func (c LoopbackConfig) spec() fleetSpec {
	return fleetSpec{
		router: "MR-0", group: "grp-0", users: c.Users, server: c.Server,
		serverOut: FaultPlan{Drop: c.Loss}, serverSeed: c.Seed,
		out: FaultPlan{Drop: c.Loss}, linkSeed: c.Seed + 1,
		client: c.Client, attachTimeout: c.AttachTimeout,
	}
}

// LoopbackReport is the outcome of one loopback run.
type LoopbackReport struct {
	Users       int           `json:"users"`
	Loss        float64       `json:"loss"`
	Established int           `json:"established"`
	Failed      int           `json:"failed"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// HandshakesPerSec is established handshakes over wall-clock time.
	HandshakesPerSec float64 `json:"handshakes_per_sec"`
	// P50/P99 are attach-latency percentiles over successful handshakes.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// ClientRetransmits / ClientTimeouts aggregate over all clients.
	ClientRetransmits int64 `json:"client_retransmits"`
	ClientTimeouts    int64 `json:"client_timeouts"`
	// Clients is the fleet-wide client instrument snapshot: every client
	// registers into one shared registry, so these counters (and the
	// attach_latency histogram) aggregate across the whole fleet.
	Clients metrics.Snapshot `json:"clients"`
	// DatagramsDropped counts datagrams the lossy links discarded.
	DatagramsDropped int64 `json:"datagrams_dropped"`
	// Server holds the router-side transport counters.
	Server metrics.Snapshot `json:"server"`
	// Router holds the protocol-level router counters.
	Router core.RouterStats `json:"router"`
	// Errors lists per-user attach failures (empty on full success).
	Errors []string `json:"errors,omitempty"`
}

// RunLoopback provisions a single-router network, serves it on a real UDP
// loopback socket, and drives cfg.Users concurrent clients through the
// full AKA. Every session must be established for the run to be a
// success, but individual failures are reported, not fatal.
func RunLoopback(cfg LoopbackConfig) (*LoopbackReport, error) {
	cfg = cfg.withDefaults()
	f, err := newFleet(cfg.spec(), nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep := f.loopbackWave(cfg)
	rep.Server = f.srv.Stats().Snapshot()
	rep.Router = f.ln.Router.Stats()
	return rep, nil
}

// RunClientWave is RunLoopback's attach wave against a server elsewhere:
// cfg.Users of the given users attach concurrently to addr, each from
// its own socket on any local address. cfg.Server is unused, and the
// report carries no server or router counters.
func RunClientWave(addr net.Addr, users []*core.User, cfg LoopbackConfig) (*LoopbackReport, error) {
	cfg = cfg.withDefaults()
	if len(users) < cfg.Users {
		return nil, fmt.Errorf("chaos: %d users provisioned, %d requested", len(users), cfg.Users)
	}
	spec := cfg.spec()
	spec.bind = ":0"
	f := remoteFleet(spec, users, addr, nil)
	defer f.Close()
	return f.loopbackWave(cfg), nil
}

// loopbackWave attaches every user once, concurrently, and reports.
func (f *fleet) loopbackWave(cfg LoopbackConfig) *LoopbackReport {
	start := time.Now()
	attempts := f.wave(0, cfg.Users)
	rep := &LoopbackReport{Users: cfg.Users, Loss: cfg.Loss, Elapsed: time.Since(start)}
	var latencies []time.Duration
	for i, a := range attempts {
		if a.err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("user %d: %v", i, a.err))
			continue
		}
		rep.Established++
		latencies = append(latencies, a.latency)
	}
	rep.P50, rep.P99 = percentiles(latencies)
	rep.HandshakesPerSec = float64(rep.Established) / rep.Elapsed.Seconds()
	rep.Clients = cfg.Client.Metrics.Snapshot()
	rep.ClientRetransmits = rep.Clients.Value("retransmits")
	rep.ClientTimeouts = rep.Clients.Value("timeouts")
	rep.DatagramsDropped = f.injected().Dropped
	return rep
}

// DrillConfig describes a multi-epoch revocation-distribution drill: the
// same user population re-attaches across Rounds epochs while the
// operator revokes RevokePerRound spare credentials between rounds, so
// the URL grows and clients must converge onto each new epoch in-band.
type DrillConfig struct {
	// Users is the persistent client population. Default 8.
	Users int
	// Rounds is how many attach waves run. Default 4.
	Rounds int
	// RevokePerRound is how many spare group slots are revoked between
	// consecutive rounds. (Rounds-1)*RevokePerRound must fit the spare
	// headroom NewLocalNetwork provisions. Default 2.
	RevokePerRound int
	// AttachTimeout bounds one client's whole handshake. Default 30s.
	AttachTimeout time.Duration
	// Client and Server tune the endpoints.
	Client transport.ClientConfig
	Server transport.ServerConfig
}

func (c DrillConfig) withDefaults() DrillConfig {
	setDefault(&c.Users, 8)
	setDefault(&c.Rounds, 4)
	setDefault(&c.RevokePerRound, 2)
	setDefault(&c.AttachTimeout, 30*time.Second)
	return c
}

// DrillReport is the outcome of one revocation-distribution drill. A
// healthy run shows every client bootstrapping with at most one full
// snapshot per list (SnapshotsPerClientMax ≤ 2) and converging onto all
// later epochs via deltas alone.
type DrillReport struct {
	Users          int `json:"users"`
	Rounds         int `json:"rounds"`
	RevokePerRound int `json:"revoke_per_round"`
	// Established counts successful attaches over all rounds
	// (Users*Rounds on full success).
	Established int `json:"established"`
	// DeltaFetches / SnapshotFetches aggregate client-side applies.
	DeltaFetches    int64 `json:"delta_fetches"`
	SnapshotFetches int64 `json:"snapshot_fetches"`
	// SnapshotsPerClientMax is the worst per-client full-snapshot count;
	// >2 means some client fell off the delta path.
	SnapshotsPerClientMax int64 `json:"snapshots_per_client_max"`
	// FinalURLEpoch is the router's URL epoch after the last revocation.
	FinalURLEpoch uint64 `json:"final_url_epoch"`
	// URLSize is the final number of revoked tokens on the list.
	URLSize int `json:"url_size"`
	// Server holds the router-side transport counters.
	Server metrics.Snapshot `json:"server"`
	// Errors lists attach failures (empty on full success).
	Errors []string `json:"errors,omitempty"`
}

// RunRevocationDrill provisions a network, then alternates attach waves
// with spare-credential revocations. Users keep their installed
// revocation state across rounds, so every round after the first should
// be served by signed deltas, never by re-shipping the full URL.
func RunRevocationDrill(cfg DrillConfig) (*DrillReport, error) {
	cfg = cfg.withDefaults()
	f, err := newFleet(fleetSpec{
		router: "MR-0", group: "grp-0", users: cfg.Users, server: cfg.Server,
		client: cfg.Client, attachTimeout: cfg.AttachTimeout,
	}, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	rep := &DrillReport{Users: cfg.Users, Rounds: cfg.Rounds, RevokePerRound: cfg.RevokePerRound}
	snapshots := make([]int64, cfg.Users)
	for round := 0; round < cfg.Rounds; round++ {
		if round > 0 {
			// Revoke spare slots (issued beyond the live population) so
			// the URL grows without cutting off any attaching user.
			if err := f.bumpRevocation((round-1)*cfg.RevokePerRound, cfg.RevokePerRound); err != nil {
				return nil, err
			}
		}
		for i, a := range f.wave(0, cfg.Users) {
			if a.cl != nil {
				st := a.cl.Stats()
				snapshots[i] += st.RevSnapshotFetches()
				rep.DeltaFetches += st.RevDeltaFetches()
				rep.SnapshotFetches += st.RevSnapshotFetches()
			}
			if a.err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("round %d user %d: %v", round, i, a.err))
				continue
			}
			rep.Established++
		}
	}
	rep.SnapshotsPerClientMax = slices.Max(snapshots)
	rep.FinalURLEpoch = f.urlEpoch()
	if snap, ok := f.ln.Router.RevocationSnapshot(revocation.ListURL); ok {
		rep.URLSize = len(snap.Entries)
	}
	rep.Server = f.srv.Stats().Snapshot()
	return rep, nil
}
