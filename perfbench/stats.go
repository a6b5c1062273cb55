package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 drawn from fewer than 1000 samples would rest on a handful of
// outliers and is refused instead of reported.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// ascending samples. ok is false when fewer than minTail samples lie
// beyond the rank, i.e. when the percentile is not supported by the data.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return sorted[rank-1], false
	}
	return sorted[rank-1], true
}

// quartiles returns the first, second and third quartile of values with
// the "exclusive" method of Python's statistics.quantiles(values, n=4),
// the rule the benchmark's run-to-run spread is judged by. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64, err error) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j into [1, n-1] so both neighbours exist, then
		// interpolates (or extrapolates) from the clamped position.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], nil
}

// median returns the middle value of values (mean of the two middle ones
// for an even count), 0 for none. values is not modified.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// micros converts durations to sorted microsecond samples.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// latencySummary is the reported shape of one latency sample set.
type latencySummary struct {
	N   int
	P50 float64
	P99 float64
	// P99OK is false when the p99 rests on fewer than minTail samples.
	P99OK bool
}

func summarize(ds []time.Duration) latencySummary {
	us := micros(ds)
	s := latencySummary{N: len(us)}
	s.P50, _ = percentile(us, 0.5)
	s.P99, s.P99OK = percentile(us, 0.99)
	return s
}

// sample is one operation's latency and when it completed.
type sample struct {
	at  int64 // completion time, Unix nanoseconds
	lat time.Duration
	// traced marks operations whose layer calls were recorded as spans.
	traced bool
}

// tracingOverhead compares, within one window, the median latency of
// operations recorded with spans against those recorded without: the
// two alternate, so both see the same load, table size and host noise.
// ok is false without samples of both kinds.
func tracingOverhead(series ...[]sample) (frac float64, ok bool) {
	var on, off []time.Duration
	for _, s := range series {
		for _, x := range s {
			if x.traced {
				on = append(on, x.lat)
			} else {
				off = append(off, x.lat)
			}
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0, false
	}
	return summarize(on).P50/summarize(off).P50 - 1, true
}

// inOrder merges per-lane sample series into one completion-ordered
// latency sequence.
func inOrder(series ...[]sample) []time.Duration {
	var all []sample
	for _, s := range series {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([]time.Duration, len(all))
	for i, s := range all {
		out[i] = s.lat
	}
	return out
}

// p99Chunk is how many consecutive operations one p99 is taken over:
// the smallest count that leaves minTail samples beyond the 99th
// percentile.
const p99Chunk = 100 * minTail

// chunkedP99 cuts completion-ordered latencies into consecutive chunks
// of p99Chunk operations (a short remainder joins the last chunk) and
// returns the median over chunks of each chunk's p99, in microseconds,
// with the chunk count. A host stall then moves the few chunks it
// overlaps instead of the whole run's tail. ok is false when there are
// fewer than p99Chunk samples.
func chunkedP99(lat []time.Duration) (p99 float64, chunks int, ok bool) {
	n := len(lat) / p99Chunk
	if n == 0 {
		return 0, 0, false
	}
	p99s := make([]float64, n)
	for c := 0; c < n; c++ {
		end := (c + 1) * p99Chunk
		if c == n-1 {
			end = len(lat)
		}
		v, ok := percentile(micros(lat[c*p99Chunk:end]), 0.99)
		if !ok {
			return 0, 0, false
		}
		p99s[c] = v
	}
	return median(p99s), n, true
}

// schedule is the open-loop send plan: frame i is due at start + i·period
// whatever happened to earlier frames. Latency is measured from the due
// time, so a stall that delays sending is charged to every frame that
// queued behind it instead of vanishing from the record (coordinated
// omission).
type schedule struct {
	start  time.Time
	period time.Duration
}

// due returns when frame i should leave.
func (s schedule) due(i int64) time.Time {
	return s.start.Add(time.Duration(i) * s.period)
}

// latency is the round trip of frame i as the user sees it: from its due
// time, not from when a late sender finally got it out.
func (s schedule) latency(i int64, done time.Time) time.Duration {
	return done.Sub(s.due(i))
}

// lateness is how far behind its schedule the sender put frame i out.
func (s schedule) lateness(i int64, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}

// rung is one step of the open-loop offered-rate ladder.
type rung struct {
	Rate     float64 `json:"offered_per_s"`
	Achieved float64 `json:"achieved_per_s"`
	Sent     int64   `json:"sent"`
	Lost     int64   `json:"lost"`
	P99us    float64 `json:"p99_us"`
	P99OK    bool    `json:"p99_supported"`
}

// loss is the fraction of the rung's frames that never came back.
func (r rung) loss() float64 {
	if r.Sent == 0 {
		return 1
	}
	return float64(r.Lost) / float64(r.Sent)
}

// meets reports whether the rung satisfies the service-level objective:
// a supported p99 under limitUS and loss at or under maxLoss. A rung that
// lost frames counts them as misses, so heavy loss fails on its own.
func (r rung) meets(limitUS, maxLoss float64) bool {
	return r.P99OK && r.P99us <= limitUS && r.loss() <= maxLoss
}

// medianTrial summarizes repeated trials of one rung by its median
// trial, ordering trials that miss the objective after those that meet
// it and the rest by p99, so the rung meets the objective exactly when
// most trials do and one stalled trial cannot fail it. The achieved rate
// is the median over trials.
func medianTrial(trials []rung, limitUS, maxLoss float64) rung {
	sorted := append([]rung(nil), trials...)
	sort.SliceStable(sorted, func(i, j int) bool {
		mi, mj := sorted[i].meets(limitUS, maxLoss), sorted[j].meets(limitUS, maxLoss)
		if mi != mj {
			return mi
		}
		return sorted[i].P99us < sorted[j].P99us
	})
	out := sorted[len(sorted)/2]
	rates := make([]float64, len(trials))
	for i, t := range trials {
		rates[i] = t.Achieved
	}
	out.Achieved = median(rates)
	return out
}

// highestPassing returns the index of the highest-rate rung that meets
// the objective with every lower rung meeting it too (the ladder is
// climbed in order and stops at the first miss), or -1 when the first
// rung already misses.
func highestPassing(rungs []rung, limitUS, maxLoss float64) int {
	best := -1
	for i, r := range rungs {
		if !r.meets(limitUS, maxLoss) {
			break
		}
		best = i
	}
	return best
}

// interval is a closed-open time range [Start, End) in nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is the part of parent not covered by any child interval:
// children may overlap each other (concurrent calls) and may stick out of
// the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered int64
	var cur interval
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			cur, open = c, true
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if open {
		covered += cur.End - cur.Start
	}
	return (parent.End - parent.Start) - covered
}
