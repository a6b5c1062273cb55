package transport

import (
	"context"
	"crypto/rand"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// testClientConfig keeps the first retransmissions quick (lossy tests
// converge fast) while leaving a deep retry budget: under heavy
// concurrency the router's verification queue, not the network, is the
// dominant latency, and a client must keep waiting through it.
func testClientConfig() ClientConfig {
	return ClientConfig{
		RetransmitTimeout: 80 * time.Millisecond,
		MaxTimeout:        2 * time.Second,
		MaxRetries:        16,
	}
}

func mustListen(t *testing.T) net.PacketConn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestHandshakeOverUDP drives several concurrent users through the full
// M.1–M.3 AKA over real loopback sockets and checks both session halves
// agree on keys.
func TestHandshakeOverUDP(t *testing.T) {
	const users = 8
	ln, err := NewLocalNetwork(core.Config{}, "MR-0", "grp-0", users)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Router, ServerConfig{})
	defer srv.Close()

	type result struct {
		sess *core.Session
		err  error
	}
	results := make([]result, users)
	done := make(chan int, users)
	for i := 0; i < users; i++ {
		go func(i int) {
			conn := mustListen(t)
			defer conn.Close()
			cl := NewClient(conn, srv.Addr(), ln.Users[i], testClientConfig())
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			s, err := cl.Attach(ctx)
			results[i] = result{s, err}
			done <- i
		}(i)
	}
	for i := 0; i < users; i++ {
		<-done
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("user %d: %v", i, r.err)
		}
		routerSess, ok := ln.Router.SessionByID(r.sess.ID)
		if !ok {
			t.Fatalf("user %d: router has no session %s", i, r.sess.ID)
		}
		// Key agreement: a frame sealed by the router side must open on
		// the user side.
		frame, err := routerSess.SealData(rand.Reader, []byte("welcome"))
		if err != nil {
			t.Fatal(err)
		}
		pt, err := r.sess.OpenData(frame)
		if err != nil || string(pt) != "welcome" {
			t.Fatalf("user %d: key agreement failed: %q %v", i, pt, err)
		}
	}
	if got := ln.Router.Stats().SessionsEstablished; got != users {
		t.Fatalf("router established %d sessions, want %d", got, users)
	}
}

// TestAttachReplyIsFlushed pins that the M.3 reply, produced on a
// goroutine outside the read loop, is flushed as soon as it is queued
// rather than waiting out the egress spooler's FlushDelay. The client's
// retransmit timer is set beyond the delay so a retransmission cannot
// rescue an unflushed reply either.
func TestAttachReplyIsFlushed(t *testing.T) {
	flushDelay := 500 * time.Millisecond
	if raceEnabled {
		// The race detector slows the attach's pairing work about tenfold.
		flushDelay = 3 * time.Second
	}
	ln, err := NewLocalNetwork(core.Config{}, "MR-0", "grp-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mustListen(t), ln.Router, ServerConfig{FlushDelay: flushDelay})
	defer srv.Close()

	conn := mustListen(t)
	defer conn.Close()
	cfg := testClientConfig()
	cfg.RetransmitTimeout = 4 * flushDelay
	cfg.MaxTimeout = 4 * flushDelay
	cl := NewClient(conn, srv.Addr(), ln.Users[0], cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	start := time.Now()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= flushDelay/2 {
		t.Fatalf("attach took %v with FlushDelay %v: the M.3 reply waited in the spooler", took, flushDelay)
	}
}

// TestHandshakeSurvivesLoss wraps both directions in a 25%-loss link and
// expects every session to establish via retransmission.
func TestHandshakeSurvivesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy handshake sweep in -short mode")
	}
	rep, err := RunLoopback(LoopbackConfig{
		Users:  12,
		Loss:   0.25,
		Seed:   7,
		Client: testClientConfig(),
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

// TestLoopbackAcceptance is the acceptance criterion from the transport
// issue: ≥100 concurrent full M.1–M.3 handshakes over real UDP loopback
// with ≥5% induced datagram loss, every one recovered by retransmission.
func TestLoopbackAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("100-user acceptance sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("100-user acceptance sweep under the race detector")
	}
	rep, err := RunLoopback(LoopbackConfig{
		Users:  100,
		Loss:   0.05,
		Seed:   42,
		Client: testClientConfig(),
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

// scriptKindDrop returns a drop policy that discards the first `drops`
// frames of the given kind.
func scriptKindDrop(kind Kind, drops int) func(p []byte) bool {
	remaining := drops
	return func(p []byte) bool {
		k, _, err := DecodeFrame(p)
		if err != nil || k != kind {
			return false
		}
		if remaining > 0 {
			remaining--
			return true
		}
		return false
	}
}

// TestRecoveryFromDroppedMessages drops the first copy of each AKA
// message in turn (M.1 beacon, M.2 request, M.3 confirm) and expects the
// retransmission machinery to recover every time.
func TestRecoveryFromDroppedMessages(t *testing.T) {
	cases := []struct {
		name       string
		serverDrop Kind // dropped on the server's send path
		clientDrop Kind // dropped on the client's send path
	}{
		{"dropped M.1 beacon", KindBeacon, KindInvalid},
		{"dropped M.2 access request", KindInvalid, KindAccessRequest},
		{"dropped M.3 confirm", KindAccessConfirm, KindInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := NewLocalNetwork(core.Config{}, "MR-0", "grp-0", 1)
			if err != nil {
				t.Fatal(err)
			}
			serverConn := net.PacketConn(mustListen(t))
			if tc.serverDrop != KindInvalid {
				serverConn = NewScriptedConn(serverConn, scriptKindDrop(tc.serverDrop, 1))
			}
			srv := NewServer(serverConn, ln.Router, ServerConfig{})
			defer srv.Close()

			clientConn := net.PacketConn(mustListen(t))
			defer clientConn.Close()
			if tc.clientDrop != KindInvalid {
				clientConn = NewScriptedConn(clientConn, scriptKindDrop(tc.clientDrop, 1))
			}
			cl := NewClient(clientConn, srv.Addr(), ln.Users[0], testClientConfig())
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if _, err := cl.Attach(ctx); err != nil {
				t.Fatalf("attach: %v", err)
			}
			if cl.Stats().Retransmits() == 0 {
				t.Fatal("recovered without retransmitting — drop script did not bite")
			}
		})
	}
}

// TestDuplicateAccessRequestSuppressed replays a captured M.2 datagram
// and expects the server to answer from its reply cache without a second
// session or a second expensive verification.
func TestDuplicateAccessRequestSuppressed(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "MR-0", "grp-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Router, ServerConfig{})
	defer srv.Close()

	// Capture the client's M.2 on its way out.
	var captured []byte
	clientConn := NewScriptedConn(mustListen(t), func(p []byte) bool {
		if k, _, err := DecodeFrame(p); err == nil && k == KindAccessRequest {
			captured = append([]byte(nil), p...)
		}
		return false
	})
	defer clientConn.Close()
	cl := NewClient(clientConn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no M.2 captured")
	}
	verifications := ln.Router.Stats().ExpensiveVerifications

	// Replay from a fresh socket (an on-path attacker, or the client's own
	// retransmission arriving late).
	attacker := mustListen(t)
	defer attacker.Close()
	if _, err := attacker.WriteTo(captured, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	// The cached confirm is replayed to the sender.
	_ = attacker.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 65536)
	n, _, err := attacker.ReadFrom(buf)
	if err != nil {
		t.Fatalf("expected replayed confirm: %v", err)
	}
	kind, _, err := DecodeFrame(buf[:n])
	if err != nil || kind != KindAccessConfirm {
		t.Fatalf("replay answered with %v, %v", kind, err)
	}

	if got := ln.Router.Stats().ExpensiveVerifications; got != verifications {
		t.Fatalf("replay triggered %d extra verifications", got-verifications)
	}
	if got := ln.Router.Stats().SessionsEstablished; got != 1 {
		t.Fatalf("replay minted a session: %d established", got)
	}
	if srv.Stats().Duplicates() == 0 {
		t.Fatal("duplicate counter not bumped")
	}
}

// TestHandshakeTimesOutAgainstSilence points a client at a socket nobody
// serves and expects ErrHandshakeTimeout after max retries.
func TestHandshakeTimesOutAgainstSilence(t *testing.T) {
	blackhole := mustListen(t)
	defer blackhole.Close()

	ln, err := NewLocalNetwork(core.Config{}, "MR-0", "grp-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	clientConn := mustListen(t)
	defer clientConn.Close()
	cfg := ClientConfig{
		RetransmitTimeout: 20 * time.Millisecond,
		MaxTimeout:        50 * time.Millisecond,
		MaxRetries:        3,
	}
	cl := NewClient(clientConn, blackhole.LocalAddr(), ln.Users[0], cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Attach(ctx); !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("want ErrHandshakeTimeout, got %v", err)
	}
	if cl.Stats().Timeouts() == 0 {
		t.Fatal("timeout counter not bumped")
	}
	if cl.Stats().Retransmits() != int64(cfg.MaxRetries) {
		t.Fatalf("retransmits = %d, want %d", cl.Stats().Retransmits(), cfg.MaxRetries)
	}
}

// TestRevokedUserRejectedOnWire revokes a user's credential and expects
// the on-wire handshake to fail with a revocation reject, not a timeout.
func TestRevokedUserRejectedOnWire(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "MR-0", "grp-0", 2)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := ln.NO.TokenOf("grp-0", ln.Users[0].Credentials()[0].Index)
	if err != nil {
		t.Fatal(err)
	}
	ln.NO.RevokeUserKey(tok)
	if err := ln.RefreshRevocations(); err != nil {
		t.Fatal(err)
	}

	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Router, ServerConfig{})
	defer srv.Close()

	clientConn := mustListen(t)
	defer clientConn.Close()
	cl := NewClient(clientConn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err = cl.Attach(ctx)
	if !errors.Is(err, core.ErrRevokedUser) {
		t.Fatalf("want ErrRevokedUser, got %v", err)
	}

	// The unrevoked neighbor still attaches.
	conn2 := mustListen(t)
	defer conn2.Close()
	cl2 := NewClient(conn2, srv.Addr(), ln.Users[1], testClientConfig())
	if _, err := cl2.Attach(ctx); err != nil {
		t.Fatalf("unrevoked user: %v", err)
	}
}

// TestPeerAKAOverUDP runs M̃.1–M̃.3 between two user sockets, with the
// first M̃.2 dropped to exercise the responder's duplicate-hello replay.
func TestPeerAKAOverUDP(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "MR-0", "grp-0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.SeedUserRevocations(); err != nil {
		t.Fatal(err)
	}
	// Both users need the router generator from a beacon.
	b, err := ln.Router.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ln.Users {
		if err := u.ObserveBeacon(b); err != nil {
			t.Fatal(err)
		}
	}

	respConn := NewScriptedConn(mustListen(t), scriptKindDrop(KindPeerResponse, 1))
	responder := NewPeerResponder(respConn, ln.Users[1], "")
	defer responder.Close()

	initConn := mustListen(t)
	defer initConn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sess, err := AttachPeer(ctx, initConn, responder.Addr(), ln.Users[0], testClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Responder derived the same session at M̃.2 and confirmed it at M̃.3.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cs := responder.Confirmed(); len(cs) == 1 {
			if cs[0].ID != sess.ID {
				t.Fatalf("confirmed session %s, initiator has %s", cs[0].ID, sess.ID)
			}
			frame, err := cs[0].SealData(rand.Reader, []byte("hi"))
			if err != nil {
				t.Fatal(err)
			}
			if pt, err := sess.OpenData(frame); err != nil || string(pt) != "hi" {
				t.Fatalf("peer key agreement: %q %v", pt, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("M̃.3 confirmation never validated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if responder.Stats().Duplicates() == 0 {
		t.Fatal("dropped M̃.2 should have forced a duplicate hello")
	}
}

// TestRevocationDrillConvergesViaDeltas is the acceptance drill for the
// revocation-distribution subsystem: a persistent user population
// re-attaches across several epochs while the operator keeps revoking,
// and after the cold-start bootstrap every client must follow the URL
// purely through signed deltas.
func TestRevocationDrillConvergesViaDeltas(t *testing.T) {
	cfg := DrillConfig{Users: 4, Rounds: 3, RevokePerRound: 2, Client: testClientConfig()}
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
