package chaos

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/metrics"
)

// FaultPlan is the per-direction fault schedule of a Conn. Probabilities
// are per datagram and mutually exclusive per roll (drop is tried first,
// then corrupt, duplicate, reorder, delay), so e.g. Drop 0.1 + Corrupt
// 0.05 mean 10% dropped and 4.5% of all datagrams corrupted.
type FaultPlan struct {
	// Drop silently discards the datagram.
	Drop float64
	// Corrupt flips one to three random bits.
	Corrupt float64
	// Duplicate delivers the datagram twice.
	Duplicate float64
	// Reorder holds the datagram back until the next one passes it.
	Reorder float64
	// Delay holds the datagram for a uniform random time in (0, DelayMax]
	// before sending it on (send side only; the receive side treats a
	// delay roll as a reorder).
	Delay    float64
	DelayMax time.Duration
}

// Counters reports what a Conn has injected so far.
type Counters struct {
	Dropped        int64
	Corrupted      int64
	Duplicated     int64
	Reordered      int64
	Delayed        int64
	PartitionDrops int64
}

// packet is a buffered datagram with its peer address.
type packet struct {
	data []byte
	addr net.Addr
}

// Conn wraps a net.PacketConn with seeded fault injection on both
// directions: Out applies to WriteTo (this endpoint toward the network),
// In applies to ReadFrom (the network toward this endpoint). A timed
// partition blackholes both directions at once. All random decisions come
// from one seeded stream, so the fault pattern is reproducible.
type Conn struct {
	inner net.PacketConn

	mu             sync.Mutex
	rng            *rand.Rand
	in, out        FaultPlan
	partitionUntil time.Time
	heldWrite      *packet  // reorder: outgoing datagram awaiting its successor
	heldRead       *packet  // reorder: incoming datagram awaiting its successor
	pendingRead    []packet // duplicates and released reorders to deliver next

	faultCounters
}

// faultCounters are the children of one chaos_injected{fault=...}
// registry family, so the soak judges (via Counters) and a /metrics
// scrape read the same instrument.
type faultCounters struct {
	dropped        *metrics.Counter
	corrupted      *metrics.Counter
	duplicated     *metrics.Counter
	reordered      *metrics.Counter
	delayed        *metrics.Counter
	partitionDrops *metrics.Counter
}

func newFaultCounters(reg *metrics.Registry) faultCounters {
	vec := reg.CounterVec("chaos_injected", "faults injected by the chaos wrapper", "fault")
	return faultCounters{
		dropped:        vec.With("drop"),
		corrupted:      vec.With("corrupt"),
		duplicated:     vec.With("duplicate"),
		reordered:      vec.With("reorder"),
		delayed:        vec.With("delay"),
		partitionDrops: vec.With("partition"),
	}
}

// load snapshots the counters.
func (f faultCounters) load() Counters {
	return Counters{
		Dropped:        f.dropped.Load(),
		Corrupted:      f.corrupted.Load(),
		Duplicated:     f.duplicated.Load(),
		Reordered:      f.reordered.Load(),
		Delayed:        f.delayed.Load(),
		PartitionDrops: f.partitionDrops.Load(),
	}
}

// Wrap puts a fault-injecting layer around conn. in and out may differ,
// giving each direction its own schedule. The injection counters live in
// a private registry; use WrapInRegistry to aggregate many links into a
// shared one.
func Wrap(conn net.PacketConn, in, out FaultPlan, seed int64) *Conn {
	return WrapInRegistry(conn, in, out, seed, nil)
}

// WrapInRegistry is Wrap with the chaos_injected{fault=...} counter
// family resolved in reg (nil creates a private registry). Registration
// is idempotent, so every wrapped link of a soak may share one registry
// and the family counts faults fleet-wide.
func WrapInRegistry(conn net.PacketConn, in, out FaultPlan, seed int64, reg *metrics.Registry) *Conn {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Conn{
		inner:         conn,
		rng:           rand.New(rand.NewSource(seed)),
		in:            in,
		out:           out,
		faultCounters: newFaultCounters(reg),
	}
}

// SetPlans replaces both fault schedules (e.g. to heal the link for a
// scenario's settle phase). The partition, if any, stays in force.
func (c *Conn) SetPlans(in, out FaultPlan) {
	c.mu.Lock()
	c.in, c.out = in, out
	c.mu.Unlock()
}

// PartitionFor blackholes the connection in both directions for d,
// starting now. Calling it again extends or shortens the window.
func (c *Conn) PartitionFor(d time.Duration) {
	c.mu.Lock()
	c.partitionUntil = time.Now().Add(d)
	c.mu.Unlock()
}

// Partitioned reports whether the partition window is currently open.
func (c *Conn) Partitioned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.partitionUntil)
}

// Counters snapshots the injected-fault counters.
func (c *Conn) Counters() Counters { return c.load() }

// roll draws one uniform variate under mu.
func (c *Conn) roll() float64 { return c.rng.Float64() }

// corrupt flips 1–3 random bits of p in place (under mu, for the rng).
func (c *Conn) corrupt(p []byte) {
	if len(p) == 0 {
		return
	}
	flips := 1 + c.rng.Intn(3)
	for i := 0; i < flips; i++ {
		bit := c.rng.Intn(len(p) * 8)
		p[bit/8] ^= 1 << (bit % 8)
	}
}

func clonePacket(p []byte, addr net.Addr) packet {
	return packet{data: append([]byte(nil), p...), addr: addr}
}

// WriteTo applies the Out schedule, then forwards to the wrapped conn.
// Faulted datagrams still report a successful send — exactly what a lossy
// radio link looks like to the sender.
func (c *Conn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.mu.Lock()
	plan := c.out
	if time.Now().Before(c.partitionUntil) {
		c.mu.Unlock()
		c.partitionDrops.Add(1)
		return len(p), nil
	}
	// A datagram held for reordering is released behind the current one.
	var release *packet
	if c.heldWrite != nil {
		release = c.heldWrite
		c.heldWrite = nil
	}

	v := c.roll()
	switch {
	case v < plan.Drop:
		c.mu.Unlock()
		c.dropped.Add(1)
		return c.flush(nil, release, len(p))
	case v < plan.Drop+plan.Corrupt:
		bad := clonePacket(p, addr)
		c.corrupt(bad.data)
		c.mu.Unlock()
		c.corrupted.Add(1)
		return c.flush(&bad, release, len(p))
	case v < plan.Drop+plan.Corrupt+plan.Duplicate:
		dup := clonePacket(p, addr)
		c.mu.Unlock()
		c.duplicated.Add(1)
		if _, err := c.inner.WriteTo(p, addr); err != nil {
			return 0, err
		}
		return c.flush(&dup, release, len(p))
	case v < plan.Drop+plan.Corrupt+plan.Duplicate+plan.Reorder:
		held := clonePacket(p, addr)
		c.heldWrite = &held
		c.mu.Unlock()
		c.reordered.Add(1)
		return c.flush(nil, release, len(p))
	case v < plan.Drop+plan.Corrupt+plan.Duplicate+plan.Reorder+plan.Delay:
		d := time.Duration(c.rng.Int63n(int64(max(plan.DelayMax, time.Millisecond))))
		late := clonePacket(p, addr)
		c.mu.Unlock()
		c.delayed.Add(1)
		time.AfterFunc(d, func() {
			// Best effort: the conn may already be closed.
			_, _ = c.inner.WriteTo(late.data, late.addr)
		})
		return c.flush(nil, release, len(p))
	}
	c.mu.Unlock()
	if _, err := c.inner.WriteTo(p, addr); err != nil {
		return 0, err
	}
	return c.flush(nil, release, len(p))
}

// flush sends the optional extra and released datagrams, reporting n as
// the caller's write size.
func (c *Conn) flush(extra, release *packet, n int) (int, error) {
	if extra != nil {
		_, _ = c.inner.WriteTo(extra.data, extra.addr)
	}
	if release != nil {
		_, _ = c.inner.WriteTo(release.data, release.addr)
	}
	return n, nil
}

// ReadFrom applies the In schedule to arriving datagrams: drops and
// partition losses are swallowed (the read keeps waiting within the
// deadline), corruption mangles the delivered bytes, duplicates and
// released reorders are queued for the next call.
func (c *Conn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		c.mu.Lock()
		if len(c.pendingRead) > 0 {
			pkt := c.pendingRead[0]
			c.pendingRead = c.pendingRead[1:]
			c.mu.Unlock()
			return copy(p, pkt.data), pkt.addr, nil
		}
		c.mu.Unlock()

		n, addr, err := c.inner.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}

		c.mu.Lock()
		plan := c.in
		if time.Now().Before(c.partitionUntil) {
			c.mu.Unlock()
			c.partitionDrops.Add(1)
			continue
		}
		if c.heldRead != nil {
			c.pendingRead = append(c.pendingRead, *c.heldRead)
			c.heldRead = nil
		}
		v := c.roll()
		switch {
		case v < plan.Drop:
			c.mu.Unlock()
			c.dropped.Add(1)
			continue
		case v < plan.Drop+plan.Corrupt:
			c.corrupt(p[:n])
			c.mu.Unlock()
			c.corrupted.Add(1)
			return n, addr, nil
		case v < plan.Drop+plan.Corrupt+plan.Duplicate:
			c.pendingRead = append(c.pendingRead, clonePacket(p[:n], addr))
			c.mu.Unlock()
			c.duplicated.Add(1)
			return n, addr, nil
		case v < plan.Drop+plan.Corrupt+plan.Duplicate+plan.Reorder+plan.Delay:
			// Receive-side delay behaves like a reorder: hold the datagram
			// until the next one overtakes it.
			held := clonePacket(p[:n], addr)
			c.heldRead = &held
			c.mu.Unlock()
			c.reordered.Add(1)
			continue
		}
		c.mu.Unlock()
		return n, addr, nil
	}
}

// Close closes the wrapped conn.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr returns the wrapped conn's address.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// SetDeadline forwards to the wrapped conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline forwards to the wrapped conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline forwards to the wrapped conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
