package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	v, ok := percentile(mk(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, supported (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(mk(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must be refused")
	}
	if v, ok := percentile(mk(1001), 0.5); !ok || v != 501 {
		t.Fatalf("p50 of 1..1001 = %v, %v; want 501", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values from Python's statistics.quantiles(values, n=4).
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7, 1, 3, 10, 2, 9, 4, 8, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.9, 1.0, 1.1}, [3]float64{0.9, 1.0, 1.1}},
		{[]float64{3.1, 2.0, 2.5, 4.0, 10.0}, [3]float64{2.25, 3.1, 7.0}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.in, i, got, c.want[i])
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value must fail")
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		// [10,30) and [20,50) overlap: their union [10,50) counts once;
		// [90,120) sticks out of the parent and only [90,100) counts.
		{"overlap and overhang", []interval{{60, 70}, {20, 50}, {10, 30}, {90, 120}}, 100 - 40 - 10 - 10},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"covering", []interval{{-5, 200}}, 0},
		{"outside", []interval{{100, 150}, {-20, 0}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSummarizeSpansReportsSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Op: 1, Name: "child", Start: 100, End: 400},
		{ID: 3, Parent: 1, Op: 1, Name: "child", Start: 300, End: 600},
	}
	st := summarizeSpans(spans)
	if got := st["root"].SelfUS; got != 0.5 {
		t.Fatalf("root self time %v us, want 0.5 (1000 ns minus the 500 ns union of its children)", got)
	}
	if got := st["child"].Count; got != 2 {
		t.Fatalf("child count %d, want 2", got)
	}
}

func TestChunkedP99TakesMedianOverChunks(t *testing.T) {
	// Three chunks of 1000 operations; the middle one holds a stall that
	// puts 40 slow operations in its tail. Its p99 is high, the other two
	// are not, and the median ignores it.
	lat := make([]time.Duration, 3*p99Chunk+500)
	for i := range lat {
		lat[i] = time.Duration(100+i%7) * time.Microsecond
	}
	for i := p99Chunk; i < p99Chunk+40; i++ {
		lat[i] = 50 * time.Millisecond
	}
	p99, chunks, ok := chunkedP99(lat)
	if !ok || chunks != 3 {
		t.Fatalf("chunks %d, ok %v; want 3 chunks (the 500-sample remainder joins the last)", chunks, ok)
	}
	if p99 != 106 {
		t.Fatalf("chunked p99 %v us, want 106 (the unstalled chunks' p99)", p99)
	}
	if whole := summarize(lat); whole.P99 != 50000 {
		t.Fatalf("whole-window p99 %v us, want the stall's 50000", whole.P99)
	}
	if _, _, ok := chunkedP99(lat[:p99Chunk-1]); ok {
		t.Fatal("fewer than one chunk must be refused")
	}
}

func TestTracingOverheadComparesAlternatingOps(t *testing.T) {
	var s []sample
	for i := 0; i < 100; i++ {
		s = append(s, sample{lat: 110 * time.Microsecond, traced: true}, sample{lat: 100 * time.Microsecond})
	}
	frac, ok := tracingOverhead(s)
	if !ok || math.Abs(frac-0.1) > 1e-9 {
		t.Fatalf("overhead %v, %v; want 0.1", frac, ok)
	}
	if _, ok := tracingOverhead(s[:1]); ok {
		t.Fatal("overhead needs traced and untraced samples")
	}
}

func TestOpenLoopStallInflatesLaterSamples(t *testing.T) {
	// Frames are due every millisecond; the system answers 100 µs after a
	// frame leaves. The sender stalls for 5 ms before frame 3 and then
	// catches up, sending each overdue frame at once.
	start := time.Unix(0, 0)
	sched := schedule{start: start, period: time.Millisecond}
	const service = 100 * time.Microsecond
	clock := start
	var lat, late []time.Duration
	for i := int64(0); i < 10; i++ {
		if i == 3 {
			clock = clock.Add(5 * time.Millisecond)
		}
		if due := sched.due(i); clock.Before(due) {
			clock = due
		}
		late = append(late, sched.lateness(i, clock))
		lat = append(lat, sched.latency(i, clock.Add(service)))
	}
	want := []time.Duration{
		service, service, service,
		// The stall ends at 2 ms + 5 ms = 7 ms: frames 3..6 were due before
		// that and carry the wait; frame 7 is on time again.
		4*time.Millisecond + service, 3*time.Millisecond + service,
		2*time.Millisecond + service, time.Millisecond + service,
		service, service, service,
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("frame %d latency %v, want %v", i, lat[i], want[i])
		}
	}
	if late[3] != 4*time.Millisecond || late[7] != 0 {
		t.Errorf("lateness %v: want 4ms at frame 3 and 0 from frame 7", late)
	}
}

func TestHighestPassingStopsAtFirstMiss(t *testing.T) {
	ok := func(rate float64) rung { return rung{Rate: rate, Sent: 1000, P99us: 500, P99OK: true} }
	slow := rung{Rate: 3, Sent: 1000, P99us: 5000, P99OK: true}
	lossy := rung{Rate: 3, Sent: 1000, Lost: 20, P99us: 500, P99OK: true}
	thin := rung{Rate: 3, Sent: 1000, P99us: 500, P99OK: false}
	cases := []struct {
		name  string
		rungs []rung
		want  int
	}{
		{"all pass", []rung{ok(1), ok(2), ok(3)}, 2},
		{"latency miss", []rung{ok(1), ok(2), slow}, 1},
		{"loss miss", []rung{ok(1), ok(2), lossy}, 1},
		{"unsupported p99 misses", []rung{ok(1), ok(2), thin}, 1},
		{"no pass after a miss", []rung{ok(1), slow, ok(4)}, 0},
		{"first misses", []rung{slow, ok(2)}, -1},
	}
	for _, c := range cases {
		if got := highestPassing(c.rungs, 1000, 0.01); got != c.want {
			t.Errorf("%s: highest passing rung %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMedianTrialNeedsMostTrialsToMeet(t *testing.T) {
	pass := func(p99, rate float64) rung {
		return rung{Rate: 8, Achieved: rate, Sent: 1000, P99us: p99, P99OK: true}
	}
	stalled := rung{Rate: 8, Achieved: 5, Sent: 1000, Lost: 50, P99us: 900, P99OK: true}
	one := medianTrial([]rung{pass(300, 7), stalled, pass(200, 8)}, 1000, 0.01)
	if !one.meets(1000, 0.01) || one.P99us != 300 || one.Achieved != 7 {
		t.Fatalf("one stalled trial of three: %+v; want the rung to meet with the median trial's p99 300 and rate 7", one)
	}
	two := medianTrial([]rung{stalled, pass(200, 8), stalled}, 1000, 0.01)
	if two.meets(1000, 0.01) {
		t.Fatalf("two stalled trials of three: %+v; want the rung to miss", two)
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(catalog) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalog %d", len(spec.PerLayer), len(catalog))
	}
	for i, c := range catalog {
		got := spec.PerLayer[i]
		if got.Name != c.name || got.Unit != c.unit || got.Better != c.better {
			t.Errorf("per_layer[%d] = %s (%s, %s), catalog has %s (%s, %s)", i, got.Name, got.Unit, got.Better, c.name, c.unit, c.better)
		}
	}
	m := metricSet{}
	w := &window{completed: 1, opsPerSec: 1, samples: make([]time.Duration, 1000)}
	if err := endToEnd(w, 1, m); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(m) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the runner prints %d", len(spec.EndToEnd), len(m))
	}
	for _, e := range spec.EndToEnd {
		if got, ok := m[e.Name]; !ok || got.Unit != e.Unit {
			t.Errorf("end-to-end metric %s (%s) not printed with that unit: %+v", e.Name, e.Unit, got)
		}
	}
}
