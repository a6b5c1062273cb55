package chaos

import (
	"cmp"
	"context"
	"crypto/rand"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/transport"
)

// Verdict is the invariant judgement of a run: every violation found, in
// the order the run found it. A clean run has none.
type Verdict struct {
	Violations []string
}

// Failed reports whether the run violated any invariant.
func (v *Verdict) Failed() bool { return len(v.Violations) > 0 }

func (v *Verdict) violate(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

// fleetSpec declares one single-router run: what is provisioned, how the
// server and every client link are configured, and how clients attach.
type fleetSpec struct {
	router string
	group  core.GroupID
	users  int
	server transport.ServerConfig
	// dos is installed on the router when Enabled.
	dos core.DoSPolicy

	// serverOut is the server socket's send-side fault plan, seeded
	// serverSeed. in and out are every client link's plans; link i is
	// seeded linkSeed+i. Zero plans leave the sockets raw.
	serverOut  FaultPlan
	serverSeed int64
	in, out    FaultPlan
	linkSeed   int64

	// client configures every client; client i is seeded clientSeed+i
	// (zero keeps client.Seed). bind is the client socket address.
	client     transport.ClientConfig
	clientSeed int64
	bind       string

	// maintain configures the self-healing loops start launches.
	maintain transport.MaintainConfig
	// attachTimeout bounds one wave attach; with retry the attach is
	// re-run until it succeeds or the timeout ends.
	attachTimeout time.Duration
	retry         bool
	// settle bounds each convergence wait.
	settle time.Duration
	logf   func(format string, args ...any)
}

// soakClient is the retransmission schedule of the soak fleets: quick
// first retries, a deep budget.
var soakClient = transport.ClientConfig{
	RetransmitTimeout: 60 * time.Millisecond,
	MaxTimeout:        time.Second,
	MaxRetries:        12,
}

// maintained is the self-healing loop of the soak fleets: missed
// keepalives declare the server dead, re-attaches back off from
// reattachMin to ten times that.
func maintained(keepalive, settle time.Duration, missed int, reattachMin time.Duration) transport.MaintainConfig {
	return transport.MaintainConfig{
		KeepaliveInterval: keepalive,
		PingTimeout:       2 * keepalive,
		MaxMissed:         missed,
		ReattachMin:       reattachMin,
		ReattachMax:       10 * reattachMin,
		AttachTimeout:     settle / 3,
	}
}

// fleet is a live single-router run: a server on loopback (absent when
// the fleet attaches to a remote one), its clients and their links.
// Close tears all of it down.
type fleet struct {
	spec   fleetSpec
	ln     *transport.LocalNetwork
	users  []*core.User
	addr   net.Addr
	srv    *transport.Server
	v      *Verdict
	logf   func(format string, args ...any)
	faults *metrics.Registry
	// banked holds the counters of retired server incarnations.
	banked []metrics.Snapshot

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	clients []*transport.Client // maintained clients, by index
	links   []*Conn             // their fault links, by index
	socks   []net.PacketConn    // their sockets, closed by Close
}

// newFleet provisions spec's network and serves it on loopback.
// Violations found by the fleet's judges go to v.
func newFleet(spec fleetSpec, v *Verdict) (*fleet, error) {
	ln, err := transport.NewLocalNetwork(core.Config{}, spec.router, spec.group, spec.users)
	if err != nil {
		return nil, fmt.Errorf("provision: %w", err)
	}
	if spec.dos.Enabled {
		ln.Router.SetDoSPolicy(spec.dos)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := remoteFleet(spec, ln.Users, nil, v)
	f.ln = ln
	f.serve(conn, spec.server.BootEpoch)
	f.addr = f.srv.Addr()
	return f, nil
}

// remoteFleet is a fleet of users attaching to the server at addr.
func remoteFleet(spec fleetSpec, users []*core.User, addr net.Addr, v *Verdict) *fleet {
	if spec.bind == "" {
		spec.bind = "127.0.0.1:0"
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &fleet{
		spec: spec, users: users, addr: addr, v: v,
		logf:    logger(spec.logf),
		faults:  metrics.NewRegistry(),
		ctx:     ctx,
		cancel:  cancel,
		clients: make([]*transport.Client, len(users)),
		links:   make([]*Conn, len(users)),
	}
}

// serve starts a server incarnation with the given boot epoch on conn.
func (f *fleet) serve(conn net.PacketConn, epoch uint64) {
	if f.spec.serverOut != (FaultPlan{}) {
		conn = WrapInRegistry(conn, FaultPlan{}, f.spec.serverOut, f.spec.serverSeed, f.faults)
	}
	cfg := f.spec.server
	cfg.BootEpoch = epoch
	f.srv = transport.NewServer(conn, f.ln.Router, cfg)
}

// dial opens client i's socket, wrapped in a fault link when the spec
// has a plan, and builds the client over it for user i (mod the users).
func (f *fleet) dial(i int) (*transport.Client, net.PacketConn, error) {
	conn, err := net.ListenPacket("udp", f.spec.bind)
	if err != nil {
		return nil, nil, err
	}
	if f.spec.in != (FaultPlan{}) || f.spec.out != (FaultPlan{}) {
		conn = WrapInRegistry(conn, f.spec.in, f.spec.out, f.spec.linkSeed+int64(i), f.faults)
	}
	cfg := f.spec.client
	if f.spec.clientSeed != 0 {
		cfg.Seed = f.spec.clientSeed + int64(i)
	}
	return transport.NewClient(conn, f.addr, f.users[i%len(f.users)], cfg), conn, nil
}

// start launches the Maintain loops of clients from..to-1.
func (f *fleet) start(from, to int) error {
	for i := from; i < to; i++ {
		cl, conn, err := f.dial(i)
		if err != nil {
			return err
		}
		f.clients[i] = cl
		f.links[i], _ = conn.(*Conn)
		f.socks = append(f.socks, conn)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = cl.Maintain(f.ctx, f.spec.maintain)
		}()
	}
	return nil
}

// attempt is one wave attach.
type attempt struct {
	cl      *transport.Client // nil when the socket could not be opened
	latency time.Duration
	err     error
}

// wave attaches clients first..first+n-1 concurrently.
func (f *fleet) wave(first, n int) []attempt {
	out := make([]attempt, n)
	var wg sync.WaitGroup
	for k := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k] = f.attach(first + k)
		}()
	}
	wg.Wait()
	return out
}

// attach runs one timed attach of client i on a fresh socket, closed
// once the attach returns.
func (f *fleet) attach(i int) attempt {
	cl, conn, err := f.dial(i)
	if err != nil {
		return attempt{err: err}
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), f.spec.attachTimeout)
	defer cancel()
	start := time.Now()
	for {
		// A retrying attach measures time-to-session: a real client whose
		// attempt ran out of retransmits simply tries again.
		if _, err = cl.Attach(ctx); err == nil || !f.spec.retry || ctx.Err() != nil {
			break
		}
	}
	return attempt{cl: cl, latency: time.Since(start), err: err}
}

// established counts maintained clients holding a session with the
// server incarnation of the given boot epoch.
func (f *fleet) established(epoch uint64) int {
	n := 0
	for _, cl := range f.clients {
		if cl != nil && cl.Session() != nil && cl.BootEpoch() == epoch {
			n++
		}
	}
	return n
}

// settle polls cond until it holds, or records a violation once the
// settle timeout passes.
func (f *fleet) settle(what string, cond func() bool) bool {
	deadline := time.Now().Add(f.spec.settle)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.v.violate("timed out settling: %s", what)
	return false
}

// keysAgree judges client i's session end to end: the only way a
// session exists is a completed, uncorrupted handshake, so the router
// must hold it and a probe it seals must open on the client.
func (f *fleet) keysAgree(i int, sess *core.Session) bool {
	routerSess, ok := f.ln.Router.SessionByID(sess.ID)
	if !ok {
		f.v.violate("client %d session %s unknown to router", i, sess.ID)
		return false
	}
	probe := []byte(fmt.Sprintf("probe-%d", i))
	frame, err := routerSess.SealData(rand.Reader, probe)
	if err != nil {
		f.v.violate("client %d: router seal: %v", i, err)
		return false
	}
	if pt, err := sess.OpenData(frame); err != nil || string(pt) != string(probe) {
		f.v.violate("client %d: session keys disagree: %v", i, err)
		return false
	}
	return true
}

// restart kills the server — after a graceful drain when asked — reboots
// the router's volatile state (sessions gone; keys, certificates and
// revocation survive) and serves a new incarnation with the given boot
// epoch on the same address.
func (f *fleet) restart(epoch uint64, drain bool) error {
	if drain {
		ctx, cancel := context.WithTimeout(f.ctx, 10*time.Second)
		if err := f.srv.Drain(ctx); err != nil {
			f.v.violate("drain before restart: %v", err)
		}
		cancel()
	}
	// A server's counters die with it; bank them for the judges.
	f.banked = append(f.banked, f.srv.Stats().Snapshot())
	f.srv.Close()
	f.ln.Router.Reboot()
	conn, err := rebindPacket(f.addr)
	if err != nil {
		return err
	}
	f.serve(conn, epoch)
	return nil
}

// counter sums a server counter over every incarnation.
func (f *fleet) counter(name string) int64 {
	n := f.srv.Stats().Snapshot().Value(name)
	for _, s := range f.banked {
		n += s.Value(name)
	}
	return n
}

// injected sums the faults every link of the fleet has injected.
func (f *fleet) injected() Counters { return newFaultCounters(f.faults).load() }

// urlEpoch is the router's current URL epoch.
func (f *fleet) urlEpoch() uint64 { return f.ln.Router.RevocationEpoch(revocation.ListURL) }

// bumpRevocation revokes n spare slots, skip slots past the first free
// one, pushes the new lists to the router and re-signs its beacon.
func (f *fleet) bumpRevocation(skip, n int) error {
	if err := revokeSpares(f.ln.NO, f.ln.GM.ID(), f.users, skip, n); err != nil {
		return err
	}
	if err := f.ln.RefreshRevocations(); err != nil {
		return err
	}
	f.srv.InvalidateBeacon()
	return nil
}

// Close stops every Maintain loop, closes the client sockets and the
// server.
func (f *fleet) Close() {
	f.cancel()
	f.wg.Wait()
	for _, c := range f.socks {
		_ = c.Close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
}

// revokeSpares revokes n credential slots no user holds, starting skip
// slots past the first free one, so the URL epoch advances without
// cutting off anyone.
func revokeSpares(no *core.NetworkOperator, group core.GroupID, users []*core.User, skip, n int) error {
	spare := 0
	for _, u := range users {
		for _, c := range u.Credentials() {
			spare = max(spare, c.Index+1)
		}
	}
	for k := 0; k < n; k++ {
		tok, err := no.TokenOf(group, spare+skip+k)
		if err != nil {
			return fmt.Errorf("chaos: spare slot: %w", err)
		}
		no.RevokeUserKey(tok)
	}
	return nil
}

// rebindPacket re-listens on the exact address a closed server vacated.
func rebindPacket(addr net.Addr) (net.PacketConn, error) {
	var lastErr error
	for i := 0; i < 100; i++ {
		conn, err := net.ListenPacket("udp", addr.String())
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("chaos: rebind %v: %w", addr, lastErr)
}

// percentiles sorts the latencies and returns their p50 and p99.
func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	slices.Sort(lat)
	return lat[len(lat)/2], lat[len(lat)*99/100]
}

// logger returns logf, or a no-op when it is nil.
func logger(logf func(format string, args ...any)) func(format string, args ...any) {
	if logf == nil {
		return func(string, ...any) {}
	}
	return logf
}

// setDefault sets an unset (zero or negative) config value to d.
func setDefault[T cmp.Ordered](v *T, d T) {
	var unset T
	if *v <= unset {
		*v = d
	}
}
