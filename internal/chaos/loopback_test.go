package chaos

import (
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/transport"
)

// loopbackClient keeps the first retransmissions quick (lossy runs
// converge fast) while leaving a deep retry budget: under heavy
// concurrency the router's verification queue, not the network, is the
// dominant latency, and a client must keep waiting through it.
func loopbackClient() transport.ClientConfig {
	return transport.ClientConfig{
		RetransmitTimeout: 80 * time.Millisecond,
		MaxTimeout:        2 * time.Second,
		MaxRetries:        16,
	}
}

// TestHandshakeSurvivesLoss wraps both directions in a 25%-loss link and
// expects every session to establish via retransmission.
func TestHandshakeSurvivesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy handshake sweep in -short mode")
	}
	defer checkGoroutines(t)()
	rep, err := RunLoopback(LoopbackConfig{
		Users:  12,
		Loss:   0.25,
		Seed:   7,
		Client: loopbackClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d/%d handshakes failed: %v", rep.Failed, rep.Users, rep.Errors)
	}
	if rep.DatagramsDropped == 0 {
		t.Fatal("lossy link dropped nothing — loss injection broken")
	}
	if rep.ClientRetransmits == 0 {
		t.Fatal("no retransmissions despite induced loss")
	}
}

// TestLoopbackAcceptance is the transport acceptance criterion: ≥100
// concurrent full M.1–M.3 handshakes over real UDP loopback with ≥5%
// induced datagram loss, every one recovered by retransmission.
func TestLoopbackAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("100-user acceptance sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("100-user acceptance sweep under the race detector")
	}
	defer checkGoroutines(t)()
	rep, err := RunLoopback(LoopbackConfig{
		Users:  100,
		Loss:   0.05,
		Seed:   42,
		Client: loopbackClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Established < 100 || rep.Failed != 0 {
		t.Fatalf("established %d, failed %d: %v", rep.Established, rep.Failed, rep.Errors)
	}
	if rep.DatagramsDropped == 0 {
		t.Fatal("no datagrams dropped at 5%% loss — injection broken")
	}
	t.Logf("%d handshakes in %v (%.1f/s, p50 %v, p99 %v, %d retransmits, %d drops)",
		rep.Established, rep.Elapsed, rep.HandshakesPerSec, rep.P50, rep.P99,
		rep.ClientRetransmits, rep.DatagramsDropped)
}

// TestRevocationDrillConvergesViaDeltas is the acceptance drill for the
// revocation-distribution subsystem: a persistent user population
// re-attaches across several epochs while the operator keeps revoking,
// and after the cold-start bootstrap every client must follow the URL
// purely through signed deltas.
func TestRevocationDrillConvergesViaDeltas(t *testing.T) {
	defer checkGoroutines(t)()
	cfg := DrillConfig{Users: 4, Rounds: 3, RevokePerRound: 2, Client: loopbackClient()}
	rep, err := RunRevocationDrill(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		t.Fatalf("attach failures: %v", rep.Errors)
	}
	if want := cfg.Users * cfg.Rounds; rep.Established != want {
		t.Fatalf("established %d of %d", rep.Established, want)
	}
	// Cold start costs at most one full snapshot per list; everything
	// after must ride deltas.
	if rep.SnapshotsPerClientMax > 2 {
		t.Fatalf("some client fetched %d full snapshots", rep.SnapshotsPerClientMax)
	}
	// Two revocation pushes → two URL epochs → every client applies at
	// least two deltas.
	if want := int64(cfg.Users * (cfg.Rounds - 1)); rep.DeltaFetches < want {
		t.Fatalf("delta fetches %d < %d", rep.DeltaFetches, want)
	}
	if rep.Server.Value("rev_delta_fetches") == 0 {
		t.Fatal("server served no deltas")
	}
	if rep.FinalURLEpoch < 2 {
		t.Fatalf("final URL epoch %d", rep.FinalURLEpoch)
	}
	if want := (cfg.Rounds - 1) * cfg.RevokePerRound; rep.URLSize != want {
		t.Fatalf("URL size %d, want %d", rep.URLSize, want)
	}
	srvEpoch, ok := rep.Server.Get("url_epoch")
	if !ok || srvEpoch.Uint != rep.FinalURLEpoch {
		t.Fatalf("server gauge epoch %d, router at %d", srvEpoch.Uint, rep.FinalURLEpoch)
	}
}
