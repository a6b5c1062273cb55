package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/transport"
)

// laneSeed derives the seed of one load lane (or client jitter stream)
// from the workload seed, so lanes draw independent but reproducible
// streams.
func laneSeed(seed int64, lane int) int64 {
	return seed*1_000_003 + int64(lane)*7919 + 1
}

// keyCheck proves that a client session and the router's copy of it hold
// the same keys: seal a probe under the client session, look the session
// up on the router by id, and open the probe there.
func keyCheck(client *core.Session, router *core.MeshRouter) error {
	rs, ok := router.SessionByID(client.ID)
	if !ok {
		return fmt.Errorf("router %s holds no session %x", router.ID(), client.ID[:6])
	}
	probe := []byte("perfbench key check")
	sealed, err := client.AppendSealedData(nil, probe)
	if err != nil {
		return fmt.Errorf("seal key probe: %w", err)
	}
	var f core.DataFrame
	if err := core.UnmarshalDataFrameInto(sealed, &f); err != nil {
		return fmt.Errorf("decode key probe: %w", err)
	}
	pt, err := rs.OpenDataInto(&f, nil)
	if err != nil {
		return fmt.Errorf("router %s cannot open the client's probe: %w", router.ID(), err)
	}
	if !bytes.Equal(pt, probe) {
		return fmt.Errorf("router %s opened the probe to different bytes", router.ID())
	}
	return nil
}

// rejectCodes names, per error a router reject code maps back to, the
// code (transport.RejectCode's names) for the failure breakdown.
var rejectCodes = []struct {
	err  error
	code string
}{
	{core.ErrQueueFull, "queue-full"},
	{core.ErrReplay, "stale"},
	{core.ErrBadAccessRequest, "auth"},
	{core.ErrRevokedUser, "revoked"},
	{core.ErrPuzzleRequired, "puzzle"},
	{core.ErrNoSession, "unknown-session"},
	{transport.ErrTicketUnusable, "ticket"},
	{core.ErrRevocationStale, "ticket-stale"},
}

// failureCause labels a failed handshake for the failure breakdown:
// "timeout", "reject.<code>" or "other".
func failureCause(err error) string {
	if errors.Is(err, transport.ErrHandshakeTimeout) || errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	for _, rc := range rejectCodes {
		if errors.Is(err, rc.err) {
			return "reject." + rc.code
		}
	}
	return "other"
}

// counters is a flat name → value view of one or more registries.
type counters map[string]int64

// sumCounters adds up the integer instruments of several registries (the
// routers of a metro), so per-window deltas cover the whole deployment.
func sumCounters(snaps ...metrics.Snapshot) counters {
	out := counters{}
	for _, s := range snaps {
		for _, sm := range s {
			switch sm.Kind {
			case metrics.KindHistogram:
			case metrics.KindUintGauge:
				out[sm.Name] += int64(sm.Uint)
			default:
				out[sm.Name] += sm.Int
			}
		}
	}
	return out
}

// histDeltaP50 is the median, in microseconds, of the observations a
// histogram gained between two snapshots (log2-bucket precision).
func histDeltaP50(before, after metrics.Snapshot, name string) float64 {
	a, ok := after.Get(name)
	if !ok || a.Hist == nil {
		return 0
	}
	d := *a.Hist
	if b, ok := before.Get(name); ok && b.Hist != nil {
		d.Count -= b.Hist.Count
		d.Sum -= b.Hist.Sum
		for i := range d.Buckets {
			d.Buckets[i] -= b.Hist.Buckets[i]
		}
	}
	return float64(d.Quantile(0.5)) / float64(time.Microsecond)
}

// perKop scales a count to a rate per thousand operations.
func perKop(n float64, ops int64) float64 {
	return n * 1000 / float64(max(ops, 1))
}

// timedMedian runs fn n times and returns the median duration in µs.
func timedMedian(n int, fn func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	return median(ds)
}

// urlSize is the number of entries on the router's installed URL.
func urlSize(r *core.MeshRouter) int {
	snap, ok := r.RevocationSnapshot(revocation.ListURL)
	if !ok {
		return 0
	}
	return len(snap.Entries)
}
