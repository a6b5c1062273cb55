package main

import (
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/transport"
)

const (
	roamLanes   = 2
	roamRouters = 2
	// roamGossip is the backbone gossip period; the grace window after
	// which a previous owner releases a roamed session keeps its default.
	roamGossip = 100 * time.Millisecond
	// roamReplayOps is how many resumes the traced run replays in-process.
	roamReplayOps = 400
)

type roamBench struct {
	seed  int64
	rng   *mrand.Rand
	metro *backbone.Metro
	reg   *metrics.Registry
	lanes [roamLanes]*roamLane
}

type roamLane struct {
	conn net.PacketConn
	cl   *transport.Client
	at   int // index of the router the client is attached to
	// handoffFirst is the seeded phase of the same/cross alternation.
	handoffFirst bool
	ops          int
}

func newRoamBench(seed int64) workload {
	return &roamBench{seed: seed, rng: mrand.New(mrand.NewSource(seed))}
}

func (b *roamBench) params() map[string]any {
	p := map[string]any{
		"loop":              "closed, 2 clients",
		"routers":           roamRouters,
		"pattern":           "alternate same-router Resume and cross-router Retarget+Resume",
		"gossip_interval_s": roamGossip.Seconds(),
		"stek":              "one ring shared by both routers",
	}
	for i, l := range b.lanes {
		if l != nil {
			p[fmt.Sprintf("lane%d_start_router", i)] = l.at
			p[fmt.Sprintf("lane%d_handoff_first", i)] = l.handoffFirst
		}
	}
	return p
}

func (b *roamBench) setup() error {
	m, err := backbone.StartMetro(backbone.MetroConfig{
		Routers: roamRouters, Users: roamLanes, GossipInterval: roamGossip,
	}, nil)
	if err != nil {
		return err
	}
	b.metro = m
	if !m.WaitConverged(10 * time.Second) {
		return fmt.Errorf("backbone did not converge")
	}
	b.reg = metrics.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for l := range b.lanes {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lane := &roamLane{conn: conn, at: b.rng.Intn(roamRouters), handoffFirst: b.rng.Intn(2) == 1}
		b.lanes[l] = lane
		lane.cl = transport.NewClient(conn, m.Servers[lane.at].Addr(), m.Net.Users[l],
			transport.ClientConfig{Seed: laneSeed(b.seed, l), Metrics: b.reg})
		sess, err := lane.cl.Attach(ctx)
		if err != nil {
			return fmt.Errorf("priming attach: %w", err)
		}
		if err := keyCheck(sess, m.Net.Routers[lane.at]); err != nil {
			return err
		}
	}
	return nil
}

func (b *roamBench) sessions() int {
	n := 0
	for _, r := range b.metro.Net.Routers {
		n += r.Sessions()
	}
	return n
}

func (b *roamBench) serverCounters() counters {
	snaps := make([]metrics.Snapshot, len(b.metro.Servers))
	for i, s := range b.metro.Servers {
		snaps[i] = s.Stats().Snapshot()
	}
	return sumCounters(snaps...)
}

type roamLaneResult struct {
	samples              []sample
	handoffs, sames      []time.Duration
	attempted, completed int64
	cross                int64
	failures             map[string]int64
	err                  error
}

func (b *roamBench) run(d time.Duration, tr *tracer) (*window, error) {
	w := newWindow()
	heap0, sessions0 := liveHeap(), b.sessions()
	w.srvBefore, w.cliBefore = b.serverCounters(), b.reg.Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()

	w.before = takeProbe()
	deadline := w.before.at.Add(d)
	results := make([]roamLaneResult, roamLanes)
	var wg sync.WaitGroup
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

	var handoffs, sames []time.Duration
	var cross int64
	var series [][]sample
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		series = append(series, r.samples)
		handoffs = append(handoffs, r.handoffs...)
		sames = append(sames, r.sames...)
		w.attempted += r.attempted
		w.completed += r.completed
		cross += r.cross
		for k, v := range r.failures {
			w.failures[k] += v
		}
	}
	w.samples = inOrder(series...)
	if frac, ok := tracingOverhead(series...); ok && tr != nil {
		w.extra["trace_overhead"] = frac
	}
	w.srvAfter, w.cliAfter = b.serverCounters(), b.reg.Snapshot()
	if in := w.srvAfter["handoffs_in"] - w.srvBefore["handoffs_in"]; in != cross {
		return nil, fmt.Errorf("%d cross-router resumes completed but the routers adopted %d handoffs", cross, in)
	}
	w.opsPerSec = float64(w.completed) / w.elapsed.Seconds()
	gained := b.sessions() - sessions0
	if gained > 0 {
		w.extra["heap_bytes_per_session"] = (float64(liveHeap()) - float64(heap0)) / float64(gained)
	}
	hs, ss := summarize(handoffs), summarize(sames)
	w.extra["handoff_p50_us"] = hs.P50
	w.extra["same_p50_us"] = ss.P50
	w.extra["router_sessions_end"] = float64(b.sessions())
	w.meta["handoff_p50_us"] = hs.P50
	w.meta["handoff_samples"] = hs.N
	w.meta["router_sessions_end"] = b.sessions()
	return w, nil
}

// drive is one closed-loop lane alternating a same-router resume and a
// cross-router handoff.
func (b *roamBench) drive(ctx context.Context, lane *roamLane, deadline time.Time, tr *tracer) roamLaneResult {
	res := roamLaneResult{failures: map[string]int64{}}
	for time.Now().Before(deadline) {
		cross := (lane.ops%2 == 0) == lane.handoffFirst
		// Traced runs record spans on every other same/cross pair; the
		// rest measure the tracing overhead.
		optr := tr
		if lane.ops%4 >= 2 {
			optr = nil
		}
		lane.ops++
		op := optr.newOp()
		target := lane.at
		if cross {
			target = (lane.at + 1) % roamRouters
			optr.timed("transport.Client.Retarget", op, 0, func() {
				lane.cl.Retarget(b.metro.Servers[target].Addr())
			})
		}
		res.attempted++
		name := "transport.Client.Resume"
		if cross {
			name = "transport.Client.Resume.handoff"
		}
		sp := optr.begin(name, op, 0)
		start := time.Now()
		sess, err := lane.cl.Resume(ctx)
		lat := time.Since(start)
		sp.end()
		if err != nil {
			// The ticket is kept; the lane stays at the router it holds a
			// session with and tries again.
			res.failures[failureCause(err)]++
			lane.cl.Retarget(b.metro.Servers[lane.at].Addr())
			continue
		}
		lane.at = target
		res.completed++
		res.samples = append(res.samples, sample{at: time.Now().UnixNano(), lat: lat, traced: optr != nil})
		if cross {
			res.cross++
			res.handoffs = append(res.handoffs, lat)
		} else {
			res.sames = append(res.sames, lat)
		}
		if err := keyCheck(sess, b.metro.Net.Routers[lane.at]); err != nil {
			res.err = err
			return res
		}
	}
	return res
}

func (b *roamBench) close() {
	if b.metro != nil {
		b.metro.Close()
	}
	for _, l := range b.lanes {
		if l != nil {
			_ = l.conn.Close()
		}
	}
}

func (b *roamBench) layers(ref, traced *window, tr *tracer, m metricSet) error {
	transportLayers(ref, m)
	m.set("e2e.handoff_p50_us", ref.extra["handoff_p50_us"], "us")
	m.set("e2e.heap_bytes_per_session", ref.extra["heap_bytes_per_session"], "B")
	m.set("core.router_sessions_end", traced.extra["router_sessions_end"], "count")
	var logs int64
	for _, r := range b.metro.Net.Routers {
		logs += r.Metrics().Snapshot().Value("router_session_log")
	}
	m.set("core.session_log_end", float64(logs), "count")
	m.set("transport.hist_resume_p50_us", histDeltaP50(ref.cliBefore, ref.cliAfter, "resume_latency"), "us")
	m.set("transport.hist_handoff_p50_us", histDeltaP50(ref.cliBefore, ref.cliAfter, "handoff_latency"), "us")

	sd := func(n string) float64 { return float64(ref.srvAfter[n] - ref.srvBefore[n]) }
	m.set("backbone.handoffs_in", sd("handoffs_in"), "count")
	m.set("backbone.handoffs_out", sd("handoffs_out"), "count")
	m.set("backbone.frames_relayed", sd("frames_relayed"), "count")
	m.set("backbone.envelope_drops", sd("backbone_envelope_drops"), "count")
	m.set("backbone.gossip_rounds_per_s", sd("backbone_gossip_rounds")/ref.elapsed.Seconds(), "1/s")
	if same := ref.extra["same_p50_us"]; same > 0 {
		m.set("backbone.handoff_premium_x", ref.extra["handoff_p50_us"]/same, "ratio")
	}

	if err := b.replay(tr); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	spans := tr.snapshot()
	stage := func(name string) float64 { return medianOf(spans, name) }
	codec := stage("transport.codec.resume")
	m.set("transport.codec_us.resume", codec, "us")
	m.set("transport.ticket_open_us", stage("transport.OpenTicket"), "us")
	m.set("transport.ticket_seal_us", stage("transport.Ticket.Seal"), "us")
	m.set("core.resume_session_us", stage("core.ResumeSession+AdoptResumedSession"), "us")
	sum := codec + stage("transport.OpenTicket") + stage("core.UnmarshalAccessRequest.escrow") +
		stage("core.ResumeSession+AdoptResumedSession") + stage("transport.Ticket.Seal") +
		stage("core.Session.SealData") + stage("core.ResumeSession.client") + stage("core.Session.OpenData")
	m.set("transport.stage_sum_us.resume", sum, "us")
	m.set("transport.wire_residual_us.resume", summarize(ref.samples).P50-sum, "us")
	return nil
}

// replay runs the server and client halves of a ticket resume in-process
// through the public calls of each stage: request and confirm codecs,
// ticket open and reseal on the metro's shared ring, escrow decode,
// session derivation and adoption, and the key-confirmed reply.
func (b *roamBench) replay(tr *tracer) error {
	router := b.metro.Net.Routers[0]
	ring := b.metro.Ring
	// A real M.2 as escrow: the one behind a fresh in-process attach.
	user := b.metro.Net.Users[0]
	beacon, err := router.Beacon()
	if err != nil {
		return err
	}
	m2, err := user.HandleBeacon(beacon, "")
	if err != nil {
		return err
	}
	_, rs, err := router.HandleAccessRequest(m2)
	if err != nil {
		return err
	}
	escrow := m2.Marshal()
	secret := rs.ResumptionSecret()
	prev := rs.ID
	for i := 0; i < roamReplayOps; i++ {
		op := tr.newOp()
		root := tr.begin("replay.resume", op, 0)
		t := &transport.Ticket{
			Prev: prev, Router: router.ID(),
			URLEpoch: router.RevocationEpoch(revocation.ListURL), CRLEpoch: router.RevocationEpoch(revocation.ListCRL),
			BootEpoch: 1, Expiry: time.Now().Add(10 * time.Minute), Escrow: escrow,
		}
		copy(t.Secret[:], secret)
		blob, err := t.Seal(rand.Reader, ring)
		if err != nil {
			return err
		}
		req := &transport.ResumeRequest{Ticket: blob, Timestamp: time.Now()}
		if _, err := rand.Read(req.Nonce[:]); err != nil {
			return err
		}
		var got transport.ResumeRequest
		tr.timed("transport.codec.resume", op, root.id(), func() {
			var frame []byte
			if frame, err = transport.EncodeMessage(req); err == nil {
				var payload []byte
				if _, payload, err = transport.DecodeFrame(frame); err == nil {
					err = transport.UnmarshalResumeRequestInto(payload, &got)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("resume codec: %w", err)
		}
		var opened *transport.Ticket
		tr.timed("transport.OpenTicket", op, root.id(), func() { opened, err = transport.OpenTicket(got.Ticket, ring) })
		if err != nil {
			return err
		}
		var esc *core.AccessRequest
		tr.timed("core.UnmarshalAccessRequest.escrow", op, root.id(), func() { esc, err = core.UnmarshalAccessRequest(opened.Escrow) })
		if err != nil {
			return err
		}
		var serverNonce [transport.ResumeNonceSize]byte
		if _, err := rand.Read(serverNonce[:]); err != nil {
			return err
		}
		var sess *core.Session
		tr.timed("core.ResumeSession+AdoptResumedSession", op, root.id(), func() {
			sess = core.ResumeSession(opened.Prev, opened.Secret[:], got.Nonce[:], serverNonce[:], "user", time.Now())
			router.AdoptResumedSession(sess, esc)
		})
		next := *opened
		copy(next.Secret[:], sess.ResumptionSecret())
		next.Prev = sess.ID
		tr.timed("transport.Ticket.Seal", op, root.id(), func() { _, err = next.Seal(rand.Reader, ring) })
		if err != nil {
			return err
		}
		body := make([]byte, 96+len(blob))
		var df *core.DataFrame
		tr.timed("core.Session.SealData", op, root.id(), func() { df, err = sess.SealData(rand.Reader, body) })
		if err != nil {
			return err
		}
		var cand *core.Session
		tr.timed("core.ResumeSession.client", op, root.id(), func() {
			cand = core.ResumeSession(prev, secret, got.Nonce[:], serverNonce[:], "router", time.Now())
		})
		tr.timed("core.Session.OpenData", op, root.id(), func() {
			_, err = cand.OpenData(&core.DataFrame{Session: cand.ID, Seq: 0, Encrypted: true, Payload: df.Payload})
		})
		if err != nil {
			return fmt.Errorf("client cannot open the replayed resume confirm: %w", err)
		}
		root.end()
		prev, secret = sess.ID, sess.ResumptionSecret()
	}
	return nil
}
