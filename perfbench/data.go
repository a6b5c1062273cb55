package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// Data workload parameters. The sender puts one batch out per tick (the
// platform's timer resolution is about a millisecond, so finer ticks
// would only make the sender late); the batch size is rate × tick.
const (
	dataNominalRate = 20_000
	dataTick        = time.Millisecond
	// dataLimitUS and dataMaxLoss are the service-level objective of the
	// rate ladder: p99 round trip at or under the limit, loss at or under
	// the threshold.
	dataLimitUS = 25000.0
	dataMaxLoss = 0.01
	// dataLargeEvery: one payload in this many is MTU-sized, the rest are
	// small; which ones is drawn from the seed.
	dataSmall      = 64
	dataLarge      = 1200
	dataLargeEvery = 4
	// dataSizeCycle and dataTemplates bound the precomputed inputs.
	dataSizeCycle = 256
	dataTemplates = 16
	// dataDrain is how long the receiver waits for stragglers after the
	// sender stopped before counting frames as lost.
	dataDrain = 200 * time.Millisecond
	// dataSocketBuffer is the receive buffer of the server's and the
	// generator's sockets (the kernel caps it at net.core.rmem_max): a
	// few-millisecond stall of the shared host then costs latency, which
	// the due-time accounting charges, instead of dropped datagrams.
	dataSocketBuffer = 4 << 20
	// dataTrials is how many trials each ladder rung above the nominal
	// rate runs, in equal shares of the rung's time; the rung counts as
	// its median trial.
	dataTrials = 3
	// dataSpanEvery samples the per-frame seal/open spans of traced runs
	// (every flush and read batch is recorded).
	dataSpanEvery = 16
)

// sealSpan names the sampled seal spans by payload size.
var sealSpan = map[int]string{
	dataSmall: "core.Session.AppendSealedData.64",
	dataLarge: "core.Session.AppendSealedData.1200",
}

// dataLadder is the offered-rate ladder above the nominal rate; the
// nominal phase is its first rung.
var dataLadder = []float64{dataNominalRate, 40_000, 80_000}

type dataBench struct {
	seed int64
	rng  *mrand.Rand

	ln    *transport.LocalNetwork
	srv   *transport.Server
	reg   *metrics.Registry
	conn  net.PacketConn
	bc    batchio.Conn
	sess  *core.Session
	raddr net.Addr

	// sizes and templates are the seeded payload inputs: frame i carries
	// sizes[i%dataSizeCycle] bytes of templates[i%dataTemplates], with its
	// index in the first 8 bytes.
	sizes     []int
	templates [][]byte
	next      int64 // index of the next frame to send

	sendPool, recvPool *batchio.Pool
}

func newDataBench(seed int64) workload {
	return &dataBench{seed: seed, rng: mrand.New(mrand.NewSource(seed))}
}

func (b *dataBench) params() map[string]any {
	return map[string]any{
		"loop":               "open, one sender and one receiver goroutine, one client socket",
		"nominal_rate_per_s": dataNominalRate,
		"ladder_per_s":       dataLadder,
		"slo_p99_us":         dataLimitUS,
		"slo_max_loss":       dataMaxLoss,
		"payload_mix":        fmt.Sprintf("%d B and %d B, 1 in %d large (seeded positions)", dataSmall, dataLarge, dataLargeEvery),
		"tick_ms":            dataTick.Seconds() * 1000,
		"phases":             "window = nominal phase (first half) + ladder rungs above nominal (second half, equal shares)",
	}
}

func (b *dataBench) setup() error {
	b.sizes = make([]int, dataSizeCycle)
	for i := range b.sizes {
		b.sizes[i] = dataSmall
	}
	for _, i := range b.rng.Perm(dataSizeCycle)[:dataSizeCycle/dataLargeEvery] {
		b.sizes[i] = dataLarge
	}
	for i := 0; i < dataTemplates; i++ {
		t := make([]byte, dataLarge)
		b.rng.Read(t)
		b.templates = append(b.templates, t)
	}

	ln, err := transport.NewLocalNetwork(core.Config{}, "MR-data", "grp-data", 1)
	if err != nil {
		return err
	}
	b.ln = ln
	sconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.conn, err = net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		_ = sconn.Close()
		return err
	}
	for _, c := range []net.PacketConn{sconn, b.conn} {
		if err := c.(*net.UDPConn).SetReadBuffer(dataSocketBuffer); err != nil {
			_ = sconn.Close()
			return fmt.Errorf("socket receive buffer: %w", err)
		}
	}
	b.srv = transport.NewServer(sconn, ln.Router, transport.ServerConfig{BootEpoch: 1, EchoData: true})
	b.raddr = b.srv.Addr()
	b.reg = metrics.NewRegistry()
	cl := transport.NewClient(b.conn, b.raddr, ln.Users[0], transport.ClientConfig{Seed: laneSeed(b.seed, 0), Metrics: b.reg})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if b.sess, err = cl.Attach(ctx); err != nil {
		return fmt.Errorf("priming attach: %w", err)
	}
	if err := keyCheck(b.sess, ln.Router); err != nil {
		return err
	}
	// From here on the socket belongs to the batched generator.
	b.bc, _ = batchio.Upgrade(b.conn)
	b.sendPool, b.recvPool = batchio.NewPool(2048), batchio.NewPool(2048)
	// Warm the echo path (pools, rings, caches) before anything is timed.
	if _, err := b.phase(dataNominalRate, 300*time.Millisecond, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// payload writes frame i's plaintext into dst.
func (b *dataBench) payload(dst []byte, i int64) []byte {
	n := b.sizes[i%dataSizeCycle]
	dst = append(dst[:0], b.templates[i%dataTemplates][:n]...)
	for k := 0; k < 8; k++ {
		dst[k] = byte(i >> (8 * k))
	}
	return dst
}

// phaseResult is one open-loop phase at a fixed offered rate.
type phaseResult struct {
	rate     float64
	samples  []time.Duration
	late     []time.Duration
	sent     int64
	received int64
	failures map[string]int64
	syscalls int64
	// lastEcho is when the phase's last echo arrived.
	lastEcho time.Time
	before   probe
	after    probe
}

// phase offers rate frames per second for d: the sender emits one batch
// per tick on the fixed schedule, the receiver opens every echo, checks
// it against what was sent and times it from the frame's due time.
func (b *dataBench) phase(rate float64, d time.Duration, tr *tracer) (*phaseResult, error) {
	res := &phaseResult{rate: rate, failures: map[string]int64{}}
	perTick := int64(rate * dataTick.Seconds())
	base := b.next
	var syscalls int64
	var mu sync.Mutex // guards syscalls across sender and receiver
	eg := batchio.NewEgress(b.bc, 32, time.Millisecond, b.sendPool, func(int, int) {
		mu.Lock()
		syscalls++
		mu.Unlock()
	})
	ring := batchio.NewRing(32, b.recvPool)

	res.before = takeProbe()
	start := res.before.at
	// Every frame of a batch is due at its batch's tick.
	sched := schedule{start: start, period: dataTick}
	end := start.Add(d)
	var sendErr error
	sentDone := make(chan int64, 1)
	go func() {
		var sent int64
		defer func() { sentDone <- sent }()
		buf := make([]byte, 0, dataLarge)
		for tick := int64(0); ; tick++ {
			due := sched.due(tick)
			if !due.Before(end) {
				return
			}
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			res.late = append(res.late, sched.lateness(tick, time.Now()))
			for j := tick * perTick; j < (tick+1)*perTick; j++ {
				pt := b.payload(buf, base+j)
				var ref spanRef
				if j%dataSpanEvery == 0 {
					ref = tr.begin(sealSpan[len(pt)], 0, 0)
				}
				frame := eg.Buffer()
				var err error
				frame.B, err = transport.AppendFrameHeader(frame.B, transport.KindSessionData, core.SealedDataLen(len(pt)))
				if err == nil {
					frame.B, err = b.sess.AppendSealedData(frame.B, pt)
				}
				ref.end()
				if err != nil {
					frame.Release()
					sendErr = err
					return
				}
				eg.QueueBuf(frame, b.raddr)
				sent++
			}
			tr.timed("batchio.Egress.Flush", 0, 0, eg.Flush)
		}
	}()

	// Receiver: this goroutine, until every frame is back or the drain
	// period after the sender's last frame passed. On any error it still
	// waits for the sender and closes the egress and ring.
	var f core.DataFrame
	ptBuf := make([]byte, 0, 2*dataLarge)
	want := make([]byte, 0, dataLarge)
	sent := int64(-1)
	var drainUntil time.Time
	var checkErr error
	for checkErr == nil {
		if sent < 0 {
			select {
			case sent = <-sentDone:
				drainUntil = time.Now().Add(dataDrain)
			default:
			}
		}
		if sent >= 0 && (res.received+res.failures["replay"]+res.failures["decode"] >= sent || time.Now().After(drainUntil)) {
			break
		}
		if err := b.bc.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			checkErr = err
			break
		}
		ms := ring.Prepare()
		var n int
		var err error
		tr.timed("batchio.Conn.ReadBatch", 0, 0, func() { n, err = b.bc.ReadBatch(ms) })
		mu.Lock()
		syscalls++
		mu.Unlock()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			checkErr = fmt.Errorf("read echoes: %w", err)
			break
		}
		now := time.Now()
		for k := 0; k < n; k++ {
			kind, payload, derr := transport.DecodeFrame(ms[k].Payload())
			if derr != nil || kind != transport.KindSessionData {
				res.failures["decode"]++
				continue
			}
			if err := core.UnmarshalDataFrameInto(payload, &f); err != nil {
				res.failures["decode"]++
				continue
			}
			var ref spanRef
			if f.Seq%dataSpanEvery == 0 {
				ref = tr.begin("core.Session.OpenDataInto", 0, 0)
			}
			pt, err := b.sess.OpenDataInto(&f, ptBuf[:0])
			ref.end()
			if err != nil {
				if errors.Is(err, core.ErrReplay) {
					res.failures["replay"]++
				} else {
					res.failures["decode"]++
				}
				continue
			}
			ptBuf = pt[:0]
			if len(pt) < 8 {
				checkErr = fmt.Errorf("echo of %d bytes carries no frame index", len(pt))
				break
			}
			var idx int64
			for k := 0; k < 8; k++ {
				idx |= int64(pt[k]) << (8 * k)
			}
			if idx < base {
				continue // a straggler of an earlier phase, already counted lost
			}
			want = b.payload(want, idx)
			if !bytes.Equal(pt, want) {
				checkErr = fmt.Errorf("echo of frame %d decrypts to different bytes than were sent", idx)
				break
			}
			res.received++
			res.lastEcho = now
			res.samples = append(res.samples, sched.latency((idx-base)/perTick, now))
		}
	}
	if sent < 0 {
		sent = <-sentDone
	}
	res.after = takeProbe()
	eg.Close()
	ring.Close()
	if checkErr != nil {
		return nil, checkErr
	}
	if sendErr != nil {
		return nil, fmt.Errorf("seal data frame: %w", sendErr)
	}
	res.sent = sent
	b.next = base + sent
	lost := sent - res.received - res.failures["replay"] - res.failures["decode"]
	if lost > 0 {
		res.failures["lost"] += lost
	}
	mu.Lock()
	res.syscalls = syscalls
	mu.Unlock()
	return res, nil
}

func (r *phaseResult) rung() rung {
	// The rate the echoes came back at, first frame's due time to the last
	// echo.
	achieved := 0.0
	if span := r.lastEcho.Sub(r.before.at); span > 0 {
		achieved = float64(r.received) / span.Seconds()
	}
	p99, _, ok := chunkedP99(r.samples)
	return rung{
		Rate: r.rate, Achieved: achieved,
		Sent: r.sent, Lost: r.sent - r.received, P99us: p99, P99OK: ok,
	}
}

// run offers the nominal rate for the first half of d (the latency
// samples) and climbs the ladder in the second half. Throughput, CPU,
// failure and registry figures cover the whole window.
func (b *dataBench) run(d time.Duration, tr *tracer) (*window, error) {
	w := newWindow()
	w.srvBefore, w.cliBefore = sumCounters(b.srv.Stats().Snapshot()), b.reg.Snapshot()
	nominal, err := b.phase(dataNominalRate, d/2, tr)
	if err != nil {
		return nil, err
	}
	w.samples = nominal.samples
	lateUS := micros(nominal.late)
	w.extra["gen_late_us_p99"], _ = percentile(lateUS, 0.99)
	phases := []*phaseResult{nominal}
	rungs := []rung{nominal.rung()}
	if !rungs[0].meets(dataLimitUS, dataMaxLoss) {
		return nil, fmt.Errorf("the nominal rate %d/s misses the objective: p99 %.0f us, loss %.4f",
			dataNominalRate, rungs[0].P99us, rungs[0].loss())
	}
	per := d / 2 / time.Duration(len(dataLadder)-1)
	for _, rate := range dataLadder[1:] {
		var trials []rung
		for t := 0; t < dataTrials; t++ {
			ph, err := b.phase(rate, per/dataTrials, nil)
			if err != nil {
				return nil, err
			}
			phases = append(phases, ph)
			trials = append(trials, ph.rung())
		}
		r := medianTrial(trials, dataLimitUS, dataMaxLoss)
		rungs = append(rungs, r)
		if !r.meets(dataLimitUS, dataMaxLoss) {
			break
		}
	}
	w.srvAfter, w.cliAfter = sumCounters(b.srv.Stats().Snapshot()), b.reg.Snapshot()
	w.before, w.after = nominal.before, phases[len(phases)-1].after
	w.elapsed = w.after.at.Sub(w.before.at)
	var syscalls int64
	for _, ph := range phases {
		w.attempted += ph.sent
		w.completed += ph.received
		syscalls += ph.syscalls
		for k, v := range ph.failures {
			w.failures[k] += v
		}
	}
	w.extra["gen_syscalls"] = float64(syscalls)
	best := highestPassing(rungs, dataLimitUS, dataMaxLoss)
	w.opsPerSec = rungs[best].Achieved
	w.meta["ladder"] = rungs
	w.meta["slo_rate_offered_per_s"] = rungs[best].Rate
	w.meta["gen_late_us_p99"] = w.extra["gen_late_us_p99"]
	return w, nil
}

func (b *dataBench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
	if b.conn != nil {
		_ = b.conn.Close()
	}
}

func (b *dataBench) layers(ref, traced *window, tr *tracer, m metricSet) error {
	transportLayers(ref, m)
	spans := tr.snapshot()
	m.set("batchio.client_flush_us", medianOf(spans, "batchio.Egress.Flush"), "us")
	m.set("batchio.gen_late_us_p99", ref.extra["gen_late_us_p99"], "us")
	m.set("batchio.gen_pool_outstanding", float64(b.sendPool.Outstanding()+b.recvPool.Outstanding()), "count")
	m.set("core.router_sessions_end", float64(b.ln.Router.Sessions()), "count")
	m.set("core.session_log_end", float64(b.ln.Router.Metrics().Snapshot().Value("router_session_log")), "count")

	// Per-packet seal and open on the live session pair at both payload
	// sizes: client seals, the router's copy opens.
	rs, ok := b.ln.Router.SessionByID(b.sess.ID)
	if !ok {
		return fmt.Errorf("router lost the data session")
	}
	for _, n := range []int{dataSmall, dataLarge} {
		sealNS, openNS, err := sealOpenCost(b.sess, rs, n)
		if err != nil {
			return err
		}
		m.set(fmt.Sprintf("core.seal_ns.%d", n), sealNS, "ns")
		m.set(fmt.Sprintf("core.open_ns.%d", n), openNS, "ns")
	}
	return nil
}

// sealOpenCost returns the median per-call cost of AppendSealedData on
// tx and OpenDataInto on rx for an n-byte payload, over batches of calls.
func sealOpenCost(tx, rx *core.Session, n int) (sealNS, openNS float64, err error) {
	const batches, perBatch = 7, 500
	pt := make([]byte, n)
	frames := make([][]byte, perBatch)
	var seals, opens []float64
	var f core.DataFrame
	out := make([]byte, 0, n+64)
	for k := 0; k < batches; k++ {
		start := time.Now()
		for i := range frames {
			if frames[i], err = tx.AppendSealedData(frames[i][:0], pt); err != nil {
				return 0, 0, err
			}
		}
		seals = append(seals, float64(time.Since(start).Nanoseconds())/perBatch)
		start = time.Now()
		for i := range frames {
			if err = core.UnmarshalDataFrameInto(frames[i], &f); err != nil {
				return 0, 0, err
			}
			if _, err = rx.OpenDataInto(&f, out[:0]); err != nil {
				return 0, 0, err
			}
		}
		opens = append(opens, float64(time.Since(start).Nanoseconds())/perBatch)
	}
	return median(seals), median(opens), nil
}
