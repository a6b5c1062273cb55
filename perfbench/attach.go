package main

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/transport"
)

// Attach workload parameters. The URL is held at attachRotating +
// attachLanes entries: each lane's revoked user stays listed for the
// whole run, and attachRotating spare credentials are revoked on a fixed
// schedule with a membership expiry that lapses after attachRotating
// intervals, so every interval adds one entry, prunes one, and bumps the
// URL epoch once.
const (
	attachLanes       = 2
	attachUsersPerLan = 6
	attachRotating    = 2
	attachRevInterval = time.Second
	// attachVictimEvery: one attempt in this many comes from the lane's
	// revoked user and must be refused with the revoked code.
	attachVictimEvery = 16
	// attachReplayOps is how many attaches the traced run replays
	// in-process to time the server-side stages.
	attachReplayOps = 24
)

const attachGroup = core.GroupID("grp-attach")

type attachBench struct {
	seed int64
	rng  *mrand.Rand

	ln  *transport.LocalNetwork
	srv *transport.Server
	reg *metrics.Registry // shared by every client

	lanes [attachLanes]*attachLane

	// spare are the attachRotating+1 credentials the schedule cycles
	// through; spareOff is the seeded starting position.
	spare    []*sgs.RevocationToken
	spareOff int
	// anchor is the schedule's origin: event i is due at anchor + i·T.
	anchor    time.Time
	nextEvent int
	settled   atomic.Uint64 // router URL epoch after the last completed bump
	// probe is a provisioned user no lane drives; it applies every
	// delta as the operator issues it (for revocation.delta_apply_us) and
	// is the signer of the in-process replay.
	probe *core.User

	// lastDelta is the size of the newest one-epoch URL delta.
	lastDelta int
}

type attachLane struct {
	conn     net.PacketConn
	members  []*transport.Client
	users    []*core.User
	victim   *transport.Client
	victimU  *core.User
	phase    int // attempt index modulo attachVictimEvery that uses the victim
	attempts int
}

func newAttachBench(seed int64) workload {
	return &attachBench{seed: seed, rng: mrand.New(mrand.NewSource(seed))}
}

func (b *attachBench) params() map[string]any {
	return map[string]any{
		"loop":                  "closed, 2 clients",
		"users_per_client":      attachUsersPerLan,
		"revoked_users":         attachLanes,
		"revoked_attempt_share": fmt.Sprintf("1/%d", attachVictimEvery),
		"steady_url_size":       attachRotating + attachLanes,
		"revocation_interval_s": attachRevInterval.Seconds(),
		"revocation":            "RevokeUserKeyUntil -> RevocationBundles + UpdateRevocations -> InvalidateBeacon",
		"spare_offset":          b.spareOff,
	}
}

func (b *attachBench) setup() error {
	nUsers := attachLanes*(attachUsersPerLan+1) + 1
	ln, err := transport.NewLocalNetwork(core.Config{}, "MR-attach", attachGroup, nUsers)
	if err != nil {
		return err
	}
	b.ln = ln
	b.probe = ln.Users[nUsers-1]

	// Spare credentials are issued beyond the enrolled users.
	for i := 0; i <= attachRotating; i++ {
		tok, err := ln.NO.TokenOf(attachGroup, nUsers+i)
		if err != nil {
			return fmt.Errorf("spare credential %d: %w", i, err)
		}
		for _, u := range ln.Users {
			if u.Credentials()[0].Key.Token().Equal(tok) {
				return fmt.Errorf("spare credential %d belongs to an enrolled user", i)
			}
		}
		b.spare = append(b.spare, tok)
	}
	b.spareOff = b.rng.Intn(len(b.spare))

	// Each lane's revoked user stays listed well past the run.
	for l := 0; l < attachLanes; l++ {
		victim := ln.Users[attachUsersPerLan*attachLanes+l]
		ln.NO.RevokeUserKeyUntil(victim.Credentials()[0].Key.Token(), time.Now().Add(24*time.Hour))
	}
	if err := b.pushRevocations(nil, 0); err != nil {
		return err
	}
	for _, l := range []revocation.List{revocation.ListURL, revocation.ListCRL} {
		snap, ok := ln.Router.RevocationSnapshot(l)
		if !ok {
			return fmt.Errorf("router has no %v snapshot", l)
		}
		if err := b.probe.InstallRevocationSnapshot(snap); err != nil {
			return err
		}
	}

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = transport.NewServer(conn, ln.Router, transport.ServerConfig{BootEpoch: 1})
	b.reg = metrics.NewRegistry()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for l := range b.lanes {
		lc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lane := &attachLane{conn: lc, phase: b.rng.Intn(attachVictimEvery)}
		b.lanes[l] = lane
		mk := func(u *core.User, k int) *transport.Client {
			return transport.NewClient(lc, b.srv.Addr(), u, transport.ClientConfig{
				Group: attachGroup, Seed: laneSeed(b.seed, 100*l+k), Metrics: b.reg,
			})
		}
		// The lane cycles its slice of the pool in a seeded order.
		for k, idx := range b.rng.Perm(attachUsersPerLan) {
			u := ln.Users[l*attachUsersPerLan+idx]
			lane.users = append(lane.users, u)
			lane.members = append(lane.members, mk(u, k))
		}
		lane.victimU = ln.Users[attachUsersPerLan*attachLanes+l]
		lane.victim = mk(lane.victimU, attachUsersPerLan)

		// Priming: every member attaches once (warming its revocation
		// state), and the revoked user is refused once.
		for _, cl := range lane.members {
			sess, err := cl.Attach(ctx)
			if err != nil {
				return fmt.Errorf("priming attach: %w", err)
			}
			if err := keyCheck(sess, ln.Router); err != nil {
				return err
			}
		}
		if _, err := lane.victim.Attach(ctx); !errors.Is(err, core.ErrRevokedUser) {
			return fmt.Errorf("priming: revoked user not refused as revoked: %v", err)
		}
	}

	// Bring the URL to its steady size: the rotating entries of the
	// attachRotating intervals before the schedule's origin.
	b.anchor = time.Now()
	for i := -(attachRotating - 1); i <= 0; i++ {
		b.revokeSpare(i)
	}
	b.nextEvent = 1
	return b.pushRevocations(nil, 0)
}

// revokeSpare issues the rotating revocation of schedule event i: the
// entry lapses half an interval before event i+attachRotating, so that
// event's issue prunes it.
func (b *attachBench) revokeSpare(i int) {
	n := len(b.spare)
	tok := b.spare[((i+b.spareOff)%n+n)%n]
	due := b.anchor.Add(time.Duration(i) * attachRevInterval)
	expires := due.Add(time.Duration(attachRotating)*attachRevInterval - attachRevInterval/2)
	b.ln.NO.RevokeUserKeyUntil(tok, expires)
}

// pushRevocations runs the operator's distribution step: issue fresh
// bundles, install them on the router, drop the cached beacon, and bring
// the probe user along by the one-epoch delta.
func (b *attachBench) pushRevocations(tr *tracer, op uint64) error {
	var crl, url *revocation.Bundle
	var err error
	tr.timed("revocation.NetworkOperator.RevocationBundles", op, 0, func() {
		crl, url, err = b.ln.NO.RevocationBundles()
	})
	if err != nil {
		return fmt.Errorf("issue revocation bundles: %w", err)
	}
	tr.timed("core.MeshRouter.UpdateRevocations", op, 0, func() {
		err = b.ln.Router.UpdateRevocations(crl, url)
	})
	if err != nil {
		return fmt.Errorf("install revocation bundles: %w", err)
	}
	if b.srv != nil {
		b.srv.InvalidateBeacon()
	}
	epoch := b.ln.Router.RevocationEpoch(revocation.ListURL)
	b.settled.Store(epoch)

	if from := b.probe.RevocationEpoch(revocation.ListURL); from != 0 && from < epoch {
		for _, d := range url.Deltas {
			if d.FromEpoch != from {
				continue
			}
			b.lastDelta = len(d.Marshal())
			tr.timed("revocation.User.ApplyRevocationDelta", op, 0, func() {
				err = b.probe.ApplyRevocationDelta(d)
			})
			if err != nil {
				return fmt.Errorf("probe user delta %d->%d: %w", d.FromEpoch, d.ToEpoch, err)
			}
		}
		if got := b.probe.RevocationEpoch(revocation.ListURL); got != epoch {
			return fmt.Errorf("user revocation epoch %d did not converge to the router's %d", got, epoch)
		}
	}
	return nil
}

// operator fires the revocation events due before deadline.
func (b *attachBench) operator(deadline time.Time, tr *tracer) error {
	for {
		due := b.anchor.Add(time.Duration(b.nextEvent) * attachRevInterval)
		if !due.Before(deadline) {
			return nil
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		op := tr.newOp()
		b.revokeSpare(b.nextEvent)
		b.nextEvent++
		if err := b.pushRevocations(tr, op); err != nil {
			return err
		}
		if got, want := urlSize(b.ln.Router), attachRotating+attachLanes; got != want {
			return fmt.Errorf("URL size %d after event %d, want the steady %d", got, b.nextEvent-1, want)
		}
	}
}

// laneResult is one lane's share of a window.
type laneResult struct {
	samples   []sample
	attempted int64
	completed int64
	refused   int64
	failures  map[string]int64
	err       error
}

func (b *attachBench) run(d time.Duration, tr *tracer) (*window, error) {
	w := newWindow()
	router := b.ln.Router
	heap0, sessions0 := liveHeap(), router.Sessions()
	srvBefore, cliBefore := sumCounters(b.srv.Stats().Snapshot()), b.reg.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()

	w.before = takeProbe()
	deadline := w.before.at.Add(d)
	var wg sync.WaitGroup
	var opErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		opErr = b.operator(deadline, tr)
	}()
	results := make([]laneResult, attachLanes)
	for l := range b.lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			results[l] = b.drive(ctx, b.lanes[l], deadline, tr)
		}(l)
	}
	wg.Wait()
	w.after = takeProbe()
	w.elapsed = w.after.at.Sub(w.before.at)
	if opErr != nil {
		return nil, opErr
	}
	var refused int64
	var series [][]sample
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		series = append(series, r.samples)
		w.attempted += r.attempted
		w.completed += r.completed
		refused += r.refused
		for k, v := range r.failures {
			w.failures[k] += v
		}
	}
	w.samples = inOrder(series...)
	if frac, ok := tracingOverhead(series...); ok && tr != nil {
		w.extra["trace_overhead"] = frac
	}
	if refused == 0 {
		return nil, fmt.Errorf("no revoked-user attempt ran in the window (%d attempts); raise --seconds", w.attempted)
	}
	w.opsPerSec = float64(w.completed) / w.elapsed.Seconds()
	gained := router.Sessions() - sessions0
	if gained > 0 {
		w.extra["heap_bytes_per_session"] = (float64(liveHeap()) - float64(heap0)) / float64(gained)
	}
	w.extra["router_sessions_end"] = float64(router.Sessions())
	w.meta["refused_revoked"] = refused
	w.meta["url_size"] = urlSize(router)
	w.meta["url_epoch"] = router.RevocationEpoch(revocation.ListURL)
	w.srvBefore, w.srvAfter = srvBefore, sumCounters(b.srv.Stats().Snapshot())
	w.cliBefore, w.cliAfter = cliBefore, b.reg.Snapshot()
	return w, nil
}

// drive is one closed-loop lane: attach, check, repeat until deadline.
func (b *attachBench) drive(ctx context.Context, lane *attachLane, deadline time.Time, tr *tracer) laneResult {
	res := laneResult{failures: map[string]int64{}}
	router := b.ln.Router
	for time.Now().Before(deadline) {
		k := lane.attempts
		lane.attempts++
		victim := k%attachVictimEvery == lane.phase
		cl, u := lane.victim, lane.victimU
		if !victim {
			i := k % len(lane.members)
			cl, u = lane.members[i], lane.users[i]
		}
		res.attempted++
		settled := b.settled.Load()
		// Traced runs record spans on every other attempt; the rest
		// measure the tracing overhead.
		optr := tr
		if k%2 == 1 {
			optr = nil
		}
		op := optr.newOp()
		sp := optr.begin("transport.Client.Attach", op, 0)
		start := time.Now()
		sess, err := cl.Attach(ctx)
		lat := time.Since(start)
		sp.end()
		if victim {
			switch {
			case errors.Is(err, core.ErrRevokedUser):
				res.refused++
			case err == nil:
				res.err = fmt.Errorf("revoked user attached")
				return res
			case failureCause(err) == "timeout":
				res.failures["timeout"]++
			default:
				res.err = fmt.Errorf("revoked user refused with the wrong code: %w", err)
				return res
			}
			continue
		}
		if err != nil {
			res.failures[failureCause(err)]++
			continue
		}
		res.completed++
		res.samples = append(res.samples, sample{at: time.Now().UnixNano(), lat: lat, traced: optr != nil})
		if err := keyCheck(sess, router); err != nil {
			res.err = err
			return res
		}
		if got := u.RevocationEpoch(revocation.ListURL); got < settled {
			res.err = fmt.Errorf("user at URL epoch %d after attaching, router settled at %d", got, settled)
			return res
		}
	}
	return res
}

func (b *attachBench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
	for _, l := range b.lanes {
		if l != nil {
			_ = l.conn.Close()
		}
	}
}

// layers measures the attach path layer by layer: registry counters of
// the reference window, the in-process replay of the server-side stages,
// direct sgs and bn256 calls on the workload's own points, and the
// paper's cost model checked against them.
func (b *attachBench) layers(ref, traced *window, tr *tracer, m metricSet) error {
	transportLayers(ref, m)
	router := b.ln.Router
	m.set("core.router_sessions_end", traced.extra["router_sessions_end"], "count")
	m.set("core.session_log_end", float64(router.Metrics().Snapshot().Value("router_session_log")), "count")
	m.set("e2e.heap_bytes_per_session", ref.extra["heap_bytes_per_session"], "B")
	m.set("transport.hist_attach_p50_us", histDeltaP50(ref.cliBefore, ref.cliAfter, "attach_latency"), "us")

	spans := tr.snapshot()
	m.set("revocation.issue_ms", medianOf(spans, "revocation.NetworkOperator.RevocationBundles")/1e3, "ms")
	m.set("revocation.router_update_ms", medianOf(spans, "core.MeshRouter.UpdateRevocations")/1e3, "ms")
	m.set("revocation.delta_apply_us", medianOf(spans, "revocation.User.ApplyRevocationDelta"), "us")
	m.set("revocation.delta_bytes", float64(b.lastDelta), "B")
	m.set("revocation.url_size", float64(urlSize(router)), "count")

	last, err := b.replay(tr)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	spans = tr.snapshot()
	stage := func(name string) float64 { return medianOf(spans, name) }
	m.set("transport.codec_us.beacon", stage("transport.codec.beacon"), "us")
	m.set("transport.codec_us.m2", stage("transport.codec.m2"), "us")
	m.set("transport.codec_us.m3", stage("transport.codec.m3"), "us")
	m.set("core.handle_beacon_us", stage("core.User.HandleBeacon"), "us")
	batch := stage("core.MeshRouter.HandleAccessRequestBatch")
	m.set("core.access_batch_us_per_req", batch, "us")
	// The queue's wait is the difference of two medians of a dozen
	// samples each; it is reported as measured, noise and sign included.
	wait := stage("core.IngestQueue.Submit") - batch
	m.set("core.ingest_wait_us", wait, "us")
	m.set("core.handle_confirm_us", stage("core.User.HandleAccessConfirm"), "us")
	m.set("transport.ticket_seal_us", stage("transport.Ticket.Seal"), "us")
	m.set("transport.ticket_open_us", stage("transport.OpenTicket"), "us")
	sum := stage("transport.codec.beacon") + stage("core.User.HandleBeacon") + stage("transport.codec.m2") +
		batch + wait + stage("transport.Ticket.Seal") + stage("transport.codec.m3") + stage("core.User.HandleAccessConfirm")
	wire := summarize(ref.samples).P50
	m.set("transport.stage_sum_us.attach", sum, "us")
	m.set("transport.wire_residual_us.attach", wire-sum, "us")

	return sgsLayers(b.ln.NO.GroupPublicKey(), b.probe.Credentials()[0].Key, last, router, b.rng, m)
}

// replay runs attachReplayOps attaches in-process through the same
// public calls the wire path makes, one span per stage. Even operations
// verify through HandleAccessRequestBatch directly, odd ones through an
// IngestQueue, so the queue's wait is the difference of the two.
func (b *attachBench) replay(tr *tracer) (*core.AccessRequest, error) {
	router, u := b.ln.Router, b.probe
	q := core.NewIngestQueue(router, 16, 1)
	defer q.Close()
	ring := b.srv.TicketKeys()
	var last *core.AccessRequest
	for i := 0; i < attachReplayOps; i++ {
		op := tr.newOp()
		root := tr.begin("replay.attach", op, 0)
		beacon, err := router.Beacon()
		if err != nil {
			return nil, err
		}
		var b2 *core.Beacon
		tr.timed("transport.codec.beacon", op, root.id(), func() {
			var frame []byte
			if frame, err = transport.EncodeMessage(beacon); err == nil {
				var payload []byte
				if _, payload, err = transport.DecodeFrame(frame); err == nil {
					b2, err = core.UnmarshalBeacon(payload)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("beacon codec: %w", err)
		}
		var m2 *core.AccessRequest
		tr.timed("core.User.HandleBeacon", op, root.id(), func() { m2, err = u.HandleBeacon(b2, attachGroup) })
		if err != nil {
			return nil, err
		}
		var req *core.AccessRequest
		tr.timed("transport.codec.m2", op, root.id(), func() {
			var frame []byte
			if frame, err = transport.EncodeMessage(m2); err == nil {
				var payload []byte
				if _, payload, err = transport.DecodeFrame(frame); err == nil {
					req, err = core.UnmarshalAccessRequest(payload)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("m2 codec: %w", err)
		}
		var res core.AccessResult
		if i%2 == 0 {
			tr.timed("core.MeshRouter.HandleAccessRequestBatch", op, root.id(), func() {
				res = router.HandleAccessRequestBatch([]*core.AccessRequest{req})[0]
			})
		} else {
			tr.timed("core.IngestQueue.Submit", op, root.id(), func() {
				var ch <-chan core.IngestResult
				if ch, err = q.Submit(req); err == nil {
					r := <-ch
					res = core.AccessResult{Confirm: r.Confirm, Session: r.Session, Err: r.Err}
				}
			})
			if err != nil {
				return nil, err
			}
		}
		if res.Err != nil {
			return nil, fmt.Errorf("router refused the replayed M.2: %w", res.Err)
		}
		t := &transport.Ticket{
			Prev: res.Session.ID, Router: router.ID(),
			URLEpoch: router.RevocationEpoch(revocation.ListURL), CRLEpoch: router.RevocationEpoch(revocation.ListCRL),
			BootEpoch: 1, Expiry: time.Now().Add(10 * time.Minute), Escrow: m2.Marshal(),
		}
		copy(t.Secret[:], res.Session.ResumptionSecret())
		var blob []byte
		tr.timed("transport.Ticket.Seal", op, root.id(), func() { blob, err = t.Seal(rand.Reader, ring) })
		if err != nil {
			return nil, err
		}
		tr.timed("transport.OpenTicket", op, root.id(), func() { _, err = transport.OpenTicket(blob, ring) })
		if err != nil {
			return nil, err
		}
		res.Confirm.Ticket = blob
		var m3 *core.AccessConfirm
		tr.timed("transport.codec.m3", op, root.id(), func() {
			var frame []byte
			if frame, err = transport.EncodeMessage(res.Confirm); err == nil {
				var payload []byte
				if _, payload, err = transport.DecodeFrame(frame); err == nil {
					m3, err = core.UnmarshalAccessConfirm(payload)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("m3 codec: %w", err)
		}
		var sess *core.Session
		tr.timed("core.User.HandleAccessConfirm", op, root.id(), func() { sess, err = u.HandleAccessConfirm(m3) })
		if err != nil {
			return nil, err
		}
		root.end()
		if err := keyCheck(sess, router); err != nil {
			return nil, err
		}
		last = m2
	}
	return last, nil
}

// sgsLayers times the group-signature layer and its pairing substrate
// on the workload's own points, counts operations per attach with the
// counted entry points, and checks the paper's cost model (§V.C): op
// counts × primitive costs against the measured sgs spans.
func sgsLayers(gpk *sgs.PublicKey, key *sgs.PrivateKey, m2 *core.AccessRequest, router *core.MeshRouter, rng *mrand.Rand, m metricSet) error {
	const reps = 15
	msg := m2.SignedTranscript()
	sig, signOps, err := sgs.SignCounted(rand.Reader, gpk, key, msg)
	if err != nil {
		return err
	}
	var sigErr error
	signUS := timedMedian(reps, func() {
		if _, err := sgs.Sign(rand.Reader, gpk, key, msg); err != nil {
			sigErr = err
		}
	})
	if sigErr != nil {
		return sigErr
	}
	sig2, err := sgs.Sign(rand.Reader, gpk, key, msg)
	if err != nil {
		return err
	}
	ver := sgs.NewVerifier(gpk)
	one := []sgs.BatchItem{{Msg: msg, Sig: sig}}
	two := []sgs.BatchItem{{Msg: msg, Sig: sig}, {Msg: msg, Sig: sig2}}
	errs, verifyOps := ver.BatchVerifyCounted(one)
	if errs[0] != nil {
		return fmt.Errorf("replayed signature does not verify: %w", errs[0])
	}
	b1 := timedMedian(reps, func() { ver.BatchVerify(one) })
	b2 := timedMedian(reps, func() { ver.BatchVerify(two) }) / 2

	var tokens []*sgs.RevocationToken
	if snap, ok := router.RevocationSnapshot(revocation.ListURL); ok {
		for _, e := range snap.Entries {
			a, err := new(bn256.G1).Unmarshal(e)
			if err != nil {
				return fmt.Errorf("parse URL entry: %w", err)
			}
			tokens = append(tokens, &sgs.RevocationToken{A: a})
		}
	}
	revoked, _, revokeOps := sgs.IsRevokedCounted(gpk, msg, sig, tokens)
	if revoked {
		return fmt.Errorf("probe user's signature matches a URL entry")
	}
	sweepUS := timedMedian(reps, func() { ver.SweepURL(msg, sig, tokens) })

	// Primitives on the workload's points: the M.2 DH share in G1, the
	// group key's w in G2, and their pairing in GT.
	p, q := m2.GJ, gpk.W
	scalar, err := bn256.RandomScalar(rng)
	if err != nil {
		return err
	}
	gt := bn256.Pair(p, q)
	pairUS := timedMedian(reps, func() { bn256.Pair(p, q) })
	g1US := timedMedian(reps, func() { new(bn256.G1).ScalarMult(p, scalar) })
	g2US := timedMedian(reps, func() { new(bn256.G2).ScalarMult(q, scalar) })
	gtUS := timedMedian(reps, func() { new(bn256.GT).ScalarMult(gt, scalar) })
	m.set("bn256.pairing_us", pairUS, "us")
	m.set("bn256.g1_exp_us", g1US, "us")
	m.set("bn256.g2_exp_us", g2US, "us")
	m.set("bn256.gt_exp_us", gtUS, "us")

	m.set("sgs.sign_us", signUS, "us")
	m.set("sgs.batch_verify_us_per_sig.b1", b1, "us")
	m.set("sgs.batch_verify_us_per_sig.b2", b2, "us")
	if len(tokens) > 0 {
		m.set("sgs.url_sweep_us_per_token", sweepUS/float64(len(tokens)), "us")
	}
	var total sgs.OpCounts
	total.Add(signOps)
	total.Add(verifyOps)
	total.Add(revokeOps)
	m.set("sgs.pairings_per_attach", float64(total.Pairings), "count")
	m.set("sgs.exps_per_attach", float64(total.Exps), "count")
	m.set("sgs.gt_exps_per_attach", float64(total.GTExps), "count")

	cost := func(c sgs.OpCounts) float64 {
		return float64(c.Exps)*g1US + float64(c.GTExps)*gtUS + float64(c.Pairings)*pairUS
	}
	predicted := cost(signOps) + cost(verifyOps) + cost(revokeOps)
	measured := signUS + b1 + sweepUS
	m.set("sgs.model_predicted_us", predicted, "us")
	m.set("sgs.model_measured_us", measured, "us")
	if predicted > 0 {
		m.set("sgs.model_residual_frac", (measured-predicted)/predicted, "ratio")
	}
	return nil
}
