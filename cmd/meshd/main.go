// Command meshd runs the PEACE transport over real UDP sockets.
//
// Serve mode provisions a network, writes the users' credentials to a
// provision file and answers M.1–M.3 handshakes on a listen socket,
// printing router and transport counters as periodic JSON; on SIGTERM or
// SIGINT it drains gracefully (new attaches refused with a transient
// reject, in-flight replies delivered) before exiting. Client mode
// imports that provision file and drives N concurrent users through the
// full AKA against a remote meshd. Loopback mode runs both ends in one
// process over 127.0.0.1 with induced datagram loss — the acceptance
// drill for the retransmission machinery. Drill mode grows the URL
// across epochs between attachment rounds and reports how clients
// converged (delta fetches vs full snapshot fetches) — the acceptance
// drill for the epoch-based revocation distribution. Chaos mode runs the
// full fault-injection soak: a fleet of self-healing clients under
// sustained drop/corruption/duplication, a mid-run revocation bump, a
// server restart and a partition, reporting the recovery counters and
// every invariant violation. Metro mode boots an N-router backbone ring
// in one process and roams M users across it via ticket handoffs,
// printing the wave report plus every router's counters; with -soak it
// adds backbone fault injection, a mid-wave link partition and a closing
// revocation anti-rollback probe on every router. Attack mode runs the
// adaptive-DoS acceptance soak: a spoofed-source attacker fleet floods
// the attach ingress while a legitimate fleet holds and establishes
// sessions through the storm; the run judges the suspicion→puzzle loop
// (difficulty ratchet, bounded decay, replay refusal, attacker cost
// scaling, legit-fleet survival) and exits non-zero on any violation.
//
// Usage:
//
//	meshd -mode serve -listen 127.0.0.1:7464 -provision /tmp/peace.prov -users 100
//	meshd -mode client -addr 127.0.0.1:7464 -provision /tmp/peace.prov -users 100 -loss 0.05
//	meshd -mode loopback -users 100 -loss 0.05
//	meshd -mode drill -users 8 -rounds 4 -revoke 2
//	meshd -mode chaos -users 100 -drop 0.10 -corrupt 0.05 -dup 0.02 -partition 5s
//	meshd -mode metro -routers 8 -users 200 -moves 3
//	meshd -mode metro -routers 8 -users 200 -moves 3 -soak -partition 2s
//	meshd -mode attack -users 16 -flooders 3 -sources 8 -storm 2s -dosbase 3 -dosmax 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/transport"
)

// metricsHub backs the /metrics endpoint on the debug HTTP server: serve
// mode adds the transport and router registries once they exist, so the
// handler can be installed before the server boots.
var metricsHub = metrics.NewHub()

func main() {
	mode := flag.String("mode", "loopback", "serve, client, loopback or drill")
	listen := flag.String("listen", "127.0.0.1:7464", "serve: UDP listen address")
	addr := flag.String("addr", "127.0.0.1:7464", "client: meshd address to attach to")
	users := flag.Int("users", 100, "users to provision (serve) or drive (client, loopback)")
	loss := flag.Float64("loss", 0.05, "client, loopback: induced datagram loss probability [0,1)")
	seed := flag.Int64("seed", 1, "seed for induced loss")
	provision := flag.String("provision", "peace.prov", "serve: credentials file to write; client: to read")
	group := flag.String("group", "grp-0", "group to authenticate under")
	statsEvery := flag.Duration("stats", 5*time.Second, "serve: stats emission period")
	shards := flag.Int("shards", 1, "serve: ingest read loops (SO_REUSEPORT multi-sockets where available)")
	duration := flag.Duration("duration", 0, "serve: exit after this long (0 = until signal)")
	timeout := flag.Duration("timeout", 30*time.Second, "client, loopback, drill: per-handshake timeout")
	rounds := flag.Int("rounds", 4, "drill: attachment rounds (URL epochs)")
	revoke := flag.Int("revoke", 2, "drill: revocations between rounds")
	drop := flag.Float64("drop", 0.10, "chaos: datagram drop probability per direction")
	corrupt := flag.Float64("corrupt", 0.05, "chaos: bit-corruption probability per direction")
	dup := flag.Float64("dup", 0.02, "chaos: duplication probability per direction")
	storm := flag.Duration("storm", 2*time.Second, "chaos: keepalive soak length before the restart")
	partition := flag.Duration("partition", 5*time.Second, "chaos: partition length after the restart; metro: backbone partition length")
	routers := flag.Int("routers", 8, "metro: backbone routers in the ring")
	moves := flag.Int("moves", 3, "metro: cross-router handoffs per user")
	soak := flag.Bool("soak", false, "metro: add backbone fault injection, a mid-wave partition and the anti-rollback probe")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof and Prometheus /metrics on this address (e.g. 127.0.0.1:6060); empty disables")
	ratelimit := flag.Float64("ratelimit", 0, "serve: per-source attach/resume datagrams per second admitted (0 disables); attack: same, armed by default")
	rateburst := flag.Int("rateburst", 0, "serve: per-source burst above -ratelimit (0 = 2x the rate)")
	flooders := flag.Int("flooders", 3, "attack: flooder goroutines spraying the attach ingress")
	sources := flag.Int("sources", 8, "attack: spoofed source addresses per flooder")
	doswindow := flag.Duration("doswindow", 1500*time.Millisecond, "attack: suspicion sliding window")
	dosthreshold := flag.Int("dosthreshold", 8, "attack: failed requests within -doswindow that trip suspicion")
	dosquiet := flag.Duration("dosquiet", time.Second, "attack: quiet period before suspicion clears")
	dosbase := flag.Int("dosbase", 3, "attack: puzzle difficulty demanded the moment suspicion trips")
	dosmax := flag.Int("dosmax", 8, "attack: difficulty cap for the load-driven ratchet")
	dosstep := flag.Duration("dosstep", 150*time.Millisecond, "attack: minimum spacing between ratchet-up steps")
	dosdecay := flag.Duration("dosdecay", 200*time.Millisecond, "attack: spacing between decay steps once load subsides")
	flag.Parse()

	if *pprofAddr != "" {
		// The default mux carries the pprof handlers via the blank import;
		// /metrics serves every registry the running mode adds to the hub.
		http.Handle("/metrics", metricsHub)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("meshd: debug http listener: %v", err)
			}
		}()
		log.Printf("meshd: pprof on http://%s/debug/pprof/, metrics on http://%s/metrics", *pprofAddr, *pprofAddr)
	}

	var err error
	switch *mode {
	case "serve":
		err = runServe(*listen, *provision, *users, *shards, *statsEvery, *duration, *ratelimit, *rateburst)
	case "client":
		err = runClient(*addr, *provision, *users, *loss, *seed, core.GroupID(*group), *timeout)
	case "loopback":
		err = runLoopback(*users, *loss, *seed, *timeout)
	case "drill":
		err = runDrill(*users, *rounds, *revoke, *timeout)
	case "chaos":
		err = runChaos(*users, *seed, *drop, *corrupt, *dup, *storm, *partition)
	case "metro":
		err = runMetro(*routers, *users, *moves, *seed, *soak, *partition)
	case "attack":
		err = runAttack(*users, *flooders, *sources, *seed, *storm, *ratelimit, core.DoSPolicy{
			Enabled:            true,
			Window:             *doswindow,
			SuspicionThreshold: *dosthreshold,
			QuietPeriod:        *dosquiet,
			BaseDifficulty:     uint8(*dosbase),
			MaxDifficulty:      uint8(*dosmax),
			StepInterval:       *dosstep,
			DecayInterval:      *dosdecay,
		})
	default:
		err = fmt.Errorf("unknown -mode %q (serve, client, loopback, drill, chaos, metro, attack)", *mode)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// statsLine is one periodic JSON record emitted by serve mode. The
// data-plane rates are derived between successive emissions: DataPPS is
// delivered data frames per second over the last period, DataBytes the
// cumulative plaintext bytes delivered, and BatchFillAvg the average
// datagrams moved per ingest syscall (1.0 means batching buys nothing,
// IOBatch means every recvmmsg comes back full).
type statsLine struct {
	At           string           `json:"at"`
	DataPPS      float64          `json:"data_pps"`
	DataBytes    int64            `json:"data_bytes"`
	BatchFillAvg float64          `json:"batch_fill_avg"`
	Transport    metrics.Snapshot `json:"transport"`
	Router       metrics.Snapshot `json:"router"`
}

func runServe(listen, provisionPath string, users, shards int, statsEvery, duration time.Duration, ratelimit float64, rateburst int) error {
	ln, err := transport.NewLocalNetwork(core.Config{}, "MR-0", "grp-0", users)
	if err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	blob, err := ln.ExportCredentials()
	if err != nil {
		return err
	}
	if err := os.WriteFile(provisionPath, blob, 0o600); err != nil {
		return err
	}
	log.Printf("meshd: %d users provisioned, credentials in %s", users, provisionPath)

	conns, err := transport.ListenShards(listen, shards)
	if err != nil {
		return err
	}
	srv := transport.NewShardedServer(conns, ln.Router, transport.ServerConfig{
		Shards:          shards,
		RateLimitPerSec: ratelimit,
		RateLimitBurst:  rateburst,
		Logf:            log.Printf,
	})
	defer srv.Close()
	log.Printf("meshd: serving on %s (boot epoch %d, %d shard loops on %d sockets)",
		srv.Addr(), srv.BootEpoch(), srv.Shards(), len(conns))

	// One instrument: the JSON reporter below, the /metrics endpoint and
	// the peacebench experiments all read these two registries. The
	// OnScrape hook refreshes the stored gauges (reply-cache size) that
	// mirror live structures.
	metricsHub.Add(srv.Stats().Registry(), ln.Router.Metrics())
	metricsHub.OnScrape(func() { srv.Stats() })

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, duration)
		defer cancel()
	}

	enc := json.NewEncoder(os.Stdout)
	var lastDelivered int64
	lastAt := time.Now()
	emit := func() {
		now := time.Now()
		st := srv.Stats()
		line := statsLine{
			At:        now.UTC().Format(time.RFC3339),
			DataBytes: st.DataBytes(),
			Transport: st.Snapshot(),
			Router:    ln.Router.Metrics().Snapshot(),
		}
		delivered := st.DataDelivered()
		if dt := now.Sub(lastAt).Seconds(); dt > 0 {
			line.DataPPS = float64(delivered-lastDelivered) / dt
		}
		if rb := st.ReadBatches(); rb > 0 {
			line.BatchFillAvg = float64(st.ReadDatagrams()) / float64(rb)
		}
		lastDelivered, lastAt = delivered, now
		_ = enc.Encode(line)
	}
	tick := time.NewTicker(statsEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			emit()
		case <-ctx.Done():
			// Graceful drain: refuse new attaches with a transient reject
			// (clients back off and retry elsewhere) while every in-flight
			// reply is still delivered, then emit the final counters.
			log.Printf("meshd: draining")
			dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Drain(dctx); err != nil {
				log.Printf("meshd: drain: %v", err)
			}
			dcancel()
			emit()
			return nil
		}
	}
}

// clientReport is the JSON summary client mode prints on exit: the wave
// report without the server-side counters a remote client cannot see.
type clientReport struct {
	Users             int           `json:"users"`
	Established       int           `json:"established"`
	Failed            int           `json:"failed"`
	Elapsed           time.Duration `json:"elapsed_ns"`
	HandshakesPerSec  float64       `json:"handshakes_per_sec"`
	ClientRetransmits int64         `json:"client_retransmits"`
	ClientTimeouts    int64         `json:"client_timeouts"`
	DatagramsDropped  int64         `json:"datagrams_dropped"`
	Errors            []string      `json:"errors,omitempty"`
}

func runClient(addr, provisionPath string, users int, loss float64, seed int64, group core.GroupID, timeout time.Duration) error {
	blob, err := os.ReadFile(provisionPath)
	if err != nil {
		return err
	}
	provisioned, err := transport.ImportUsers(core.Config{}, blob)
	if err != nil {
		return err
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	rep, err := chaos.RunClientWave(raddr, provisioned, chaos.LoopbackConfig{
		Users:         users,
		Loss:          loss,
		Seed:          seed,
		AttachTimeout: timeout,
		Client:        transport.ClientConfig{Group: group},
	})
	if err != nil {
		return err
	}
	return printReport(clientReport{
		Users:             rep.Users,
		Established:       rep.Established,
		Failed:            rep.Failed,
		Elapsed:           rep.Elapsed,
		HandshakesPerSec:  rep.HandshakesPerSec,
		ClientRetransmits: rep.ClientRetransmits,
		ClientTimeouts:    rep.ClientTimeouts,
		DatagramsDropped:  rep.DatagramsDropped,
		Errors:            rep.Errors,
	}, rep.Failed > 0, "%d/%d handshakes failed", rep.Failed, users)
}

func runLoopback(users int, loss float64, seed int64, timeout time.Duration) error {
	rep, err := chaos.RunLoopback(chaos.LoopbackConfig{
		Users:         users,
		Loss:          loss,
		Seed:          seed,
		AttachTimeout: timeout,
	})
	if err != nil {
		return err
	}
	if err := printReport(rep, rep.Failed > 0, "%d/%d handshakes failed", rep.Failed, rep.Users); err != nil {
		return err
	}
	log.Printf("meshd: %d/%d handshakes established at %.0f%% loss (%.1f/s, %d retransmits, %d datagrams dropped)",
		rep.Established, rep.Users, loss*100, rep.HandshakesPerSec, rep.ClientRetransmits, rep.DatagramsDropped)
	return nil
}

// runDrill attaches -users clients per round while the NO revokes
// -revoke tokens between rounds, then prints the convergence report:
// clients should ride deltas after their first full snapshot.
func runDrill(users, rounds, revoke int, timeout time.Duration) error {
	rep, err := chaos.RunRevocationDrill(chaos.DrillConfig{
		Users:          users,
		Rounds:         rounds,
		RevokePerRound: revoke,
		AttachTimeout:  timeout,
	})
	if err != nil {
		return err
	}
	if err := printReport(rep, len(rep.Errors) > 0, "%d attachment failures", len(rep.Errors)); err != nil {
		return err
	}
	log.Printf("meshd: %d attachments over %d epochs converged with %d delta fetches, %d snapshot fetches (max %d full snapshots per client)",
		rep.Established, rep.FinalURLEpoch, rep.DeltaFetches, rep.SnapshotFetches, rep.SnapshotsPerClientMax)
	return nil
}

// printReport writes a run's report to stdout, indented; a failed run
// then becomes the mode's error.
func printReport(rep any, failed bool, format string, args ...any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// runChaos executes the fault-injection soak and prints its report: the
// acceptance drill for the self-healing session machinery.
func runChaos(users int, seed int64, drop, corrupt, dup float64, storm, partition time.Duration) error {
	rep, err := chaos.RunSoak(chaos.SoakConfig{
		Users:        users,
		Seed:         seed,
		Faults:       chaos.FaultPlan{Drop: drop, Corrupt: corrupt, Duplicate: dup, Reorder: 0.02},
		StormLen:     storm,
		PartitionLen: partition,
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}
	if err := printReport(rep, rep.Failed(), "chaos soak violated %d invariants", len(rep.Violations)); err != nil {
		return err
	}
	log.Printf("meshd: chaos soak clean: %d/%d clients re-established across restart+partition (%d reattaches, %d keepalives acked, %d faults injected)",
		rep.Established, rep.Users, rep.Reattaches, rep.KeepalivesAcked,
		rep.Injected.Dropped+rep.Injected.Corrupted+rep.Injected.Duplicated+rep.Injected.Reordered)
	return nil
}

// runAttack executes the adaptive-DoS attack soak and prints its report:
// the acceptance drill for the suspicion-driven client-puzzle defense.
func runAttack(users, flooders, sources int, seed int64, storm time.Duration, ratelimit float64, policy core.DoSPolicy) error {
	rep, err := chaos.RunAttackSoak(chaos.AttackConfig{
		LegitUsers:      users,
		Flooders:        flooders,
		SpoofedSources:  sources,
		Seed:            seed,
		StormLen:        storm,
		Policy:          policy,
		RateLimitPerSec: ratelimit,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	if err := printReport(rep, rep.Failed(), "attack soak violated %d invariants", len(rep.Violations)); err != nil {
		return err
	}
	log.Printf("meshd: attack soak clean: %d/%d legit clients alive through a %d-datagram flood; difficulty %d->%d->0 (decayed in %v), %d solution replays refused",
		rep.LegitAlive, rep.LegitUsers, rep.AttackerDatagrams,
		rep.BaseDifficulty, rep.PeakDifficulty, rep.DecayedIn.Round(time.Millisecond), rep.SolutionReplays)
	return nil
}

// metroLine is the JSON record metro mode emits: the wave (or soak)
// report plus every router's transport counters, handoff and gossip
// gauges included.
type metroLine struct {
	Report  any                `json:"report"`
	Routers []metrics.Snapshot `json:"routers"`
}

// runMetro boots an N-router metro backbone in one process and roams M
// users across it; with soak it additionally runs backbone fault
// injection, a mid-wave link partition and the closing anti-rollback
// probe. Exits non-zero on any session-continuity violation.
func runMetro(routers, users, moves int, seed int64, soak bool, partition time.Duration) error {
	if soak {
		rep, err := chaos.RunMetroSoak(chaos.MetroSoakConfig{
			Routers:      routers,
			Users:        users,
			Moves:        moves,
			Seed:         seed,
			PartitionLen: partition,
			Logf:         log.Printf,
		})
		if err != nil {
			return err
		}
		if err := printReport(rep, rep.Failed(), "metro soak violated %d invariants", len(rep.Violations)); err != nil {
			return err
		}
		log.Printf("meshd: metro soak clean: %d users × %d moves over %d routers, %d handoffs, %d frames relayed, %d/%d rollbacks refused",
			rep.Users, rep.Moves, rep.Routers, rep.Wave.HandoffsIn, rep.Wave.FramesRelayed,
			rep.RollbacksRefused, rep.Routers)
		return nil
	}

	m, err := backbone.StartMetro(backbone.MetroConfig{
		Routers:        routers,
		Users:          users,
		Moves:          moves,
		GossipInterval: 100 * time.Millisecond,
		GraceWindow:    30 * time.Second,
		Logf:           nil,
	}, nil)
	if err != nil {
		return err
	}
	defer m.Close()
	log.Printf("meshd: metro up: %d routers in a ring, %d users, %d moves each", routers, users, moves)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	rep, err := m.RoamingWave(ctx)
	if err != nil {
		return err
	}
	line := metroLine{Report: rep}
	for _, s := range m.Servers {
		line.Routers = append(line.Routers, s.Stats().Snapshot())
	}
	if err := printReport(line, len(rep.Violations) > 0, "metro wave violated %d invariants", len(rep.Violations)); err != nil {
		return err
	}
	log.Printf("meshd: metro wave clean: %d pairings, %d ticket handoffs, %d frames relayed, %d delivered",
		rep.Pairings, rep.Resumed, rep.FramesRelayed, rep.Delivered)
	return nil
}
