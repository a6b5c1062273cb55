// Command perfbench is the repository benchmark: a single-process load
// generator that drives the real transport server and client over UDP
// loopback through one of three workloads (attach, roam, data), checks
// every output, and prints the end-to-end metrics — or, with -trace 1,
// the per-layer metrics — as one JSON object on the last line of
// standard output. See README.md for the workloads, metrics and
// predictions.
//
//	bash perfbench/run.sh --workload attach --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/peace-mesh/peace/internal/metrics"
)

// setupReps is how many times a run provisions its deployment; setup_s
// is the median, so one slow key generation does not move it.
const setupReps = 5

// traceDir receives the span files of traced runs (inside the checkout).
const traceDir = ".bench_build/trace"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: attach, roam or data")
	seed := fl.Int64("seed", 1, "workload seed: drives user order, revocation schedule, payloads and client jitter")
	seconds := fl.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want attach, roam or data)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, meta, err := measure(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		return 1
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench-meta %s\n%s\n", metaJSON, resJSON)
	return 0
}

// workload is one named traffic mix against a deployment it provisions.
type workload interface {
	// setup provisions keys, enrolls users, certifies routers, starts the
	// servers and primes them, up to the first timed operation.
	setup() error
	// run drives the load for d and checks every output; tr is nil outside
	// the traced window.
	run(d time.Duration, tr *tracer) (*window, error)
	// layers fills the workload's per-layer metrics after the traced
	// window ran (in-process replay, direct layer calls, registries).
	layers(ref, traced *window, tr *tracer, m metricSet) error
	// params describes the generated inputs for the run metadata.
	params() map[string]any
	// close stops every server, node and socket the workload started.
	close()
}

var workloads = map[string]func(seed int64) workload{
	"attach": newAttachBench,
	"roam":   newRoamBench,
	"data":   newDataBench,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// window is what one measured run of a workload produced.
type window struct {
	elapsed time.Duration
	// samples are the operation latencies (attach, resume, data round trip
	// from its due time) in completion order.
	samples []time.Duration
	// attempted counts every operation started; completed the ones that
	// succeeded; failures breaks the rest down by cause. Expected refusals
	// (revoked users) are neither completed nor failures.
	attempted, completed int64
	failures             map[string]int64
	// opsPerSec is the workload's throughput figure (closed-loop
	// completions per second, or the open loop's SLO rate).
	opsPerSec float64
	before    probe
	after     probe
	// srvBefore/srvAfter sum the servers' registries at the window's ends;
	// cliBefore/cliAfter are the shared client registry.
	srvBefore, srvAfter counters
	cliBefore, cliAfter metrics.Snapshot
	// extra carries workload-specific measurements for the metadata and
	// the per-layer metrics.
	extra map[string]float64
	meta  map[string]any
}

func newWindow() *window {
	return &window{failures: map[string]int64{}, extra: map[string]float64{}, meta: map[string]any{}}
}

func (w *window) failed() int64 {
	var n int64
	for _, v := range w.failures {
		n += v
	}
	return n
}

// cpuPerOp is process user+sys CPU over the window per completed
// operation; it covers the load generator and the servers together.
func (w *window) cpuPerOp() float64 {
	if w.completed == 0 {
		return 0
	}
	return float64(w.after.cpu-w.before.cpu) / float64(time.Microsecond) / float64(w.completed)
}

// probe is a point-in-time reading of process-wide counters.
type probe struct {
	at         time.Time
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var probeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeProbe() probe {
	p := probe{at: time.Now(), cpu: processCPU()}
	samples := make([]rtmetrics.Sample, len(probeNames))
	for i, n := range probeNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() == rtmetrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	p.allocs, p.allocBytes, p.gcCycles = u(0), u(1), u(2)
	p.gcCPU, p.totalCPU = f(3), f(4)
	return p
}

// processCPU is user+sys CPU of the whole process (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measure provisions the workload setupReps times, runs it, checks it
// and returns the result line and the run metadata.
func measure(name string, seed int64, d time.Duration, traced bool) (*result, map[string]any, error) {
	goroutines0 := runtime.NumGoroutine()
	var setups []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = workloads[name](seed)
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	meta := runMeta(name, seed, d, traced)
	meta["params"] = w.params()
	meta["setup_s_each"] = setups
	res := &result{Correct: true, Metrics: metricSet{}}

	if !traced {
		win, err := w.run(d, nil)
		w.close()
		if err == nil {
			err = checkWindow(win)
		}
		if err != nil {
			return nil, nil, err
		}
		if err := endToEnd(win, median(setups), res.Metrics); err != nil {
			return nil, nil, err
		}
		res.Attempted, res.Failed = win.attempted, win.failed()
		describeWindow(meta, win)
		return res, meta, nil
	}

	// Traced: an untraced reference half supplies the counter, runtime and
	// failure metrics; a traced half on the same deployment records spans.
	ref, err := w.run(d/2, nil)
	if err == nil {
		err = checkWindow(ref)
	}
	if err != nil {
		w.close()
		return nil, nil, fmt.Errorf("reference window: %w", err)
	}
	tr := newTracer()
	traced2, err := w.run(d/2, tr)
	if err == nil {
		err = checkWindow(traced2)
	}
	if err != nil {
		w.close()
		return nil, nil, fmt.Errorf("traced window: %w", err)
	}
	m := metricSet{}
	if err := w.layers(ref, traced2, tr, m); err != nil {
		w.close()
		return nil, nil, fmt.Errorf("layers: %w", err)
	}
	m.set("runtime.heap_live_mb_end", float64(liveHeap())/(1<<20), "MiB")
	w.close()
	commonLayers(ref, traced2, m)
	m.set("runtime.goroutines_delta", float64(settledGoroutines(goroutines0)-goroutines0), "count")
	if err := fillCatalog(m); err != nil {
		return nil, nil, err
	}
	path, err := writeSpans(traceDir, name, seed, tr.snapshot())
	if err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	meta["spans_file"] = path
	describeWindow(meta, ref)
	res.Metrics = m
	res.Attempted, res.Failed = ref.attempted+traced2.attempted, ref.failed()+traced2.failed()
	return res, meta, nil
}

// checkWindow holds the health checks every workload shares: no
// workload installs a DoS policy, so the routers must never have demanded
// a puzzle.
func checkWindow(w *window) error {
	if d := w.srvAfter["dos_difficulty"]; d != 0 {
		return fmt.Errorf("router demanded puzzle difficulty %d; no workload engages the DoS defense", d)
	}
	return nil
}

// endToEnd derives the bounded end-to-end metrics from an untraced window.
func endToEnd(w *window, setupS float64, m metricSet) error {
	if w.completed == 0 {
		return fmt.Errorf("no operation completed")
	}
	m.set("setup_s", setupS, "s")
	m.set("op_p50_us", summarize(w.samples).P50, "us")
	m.set("ops_per_s", w.opsPerSec, "1/s")
	m.set("cpu_us_per_op", w.cpuPerOp(), "us")
	return nil
}

// commonLayers fills the per-layer metrics every workload reports: the
// runtime's allocation and GC counters over the untraced reference
// window, the tracing overhead, the tail latency and the failure
// breakdown.
func commonLayers(ref, traced *window, m metricSet) {
	ops := float64(max(ref.completed, 1))
	b, a := ref.before, ref.after
	m.set("runtime.allocs_per_op", float64(a.allocs-b.allocs)/ops, "count")
	m.set("runtime.alloc_bytes_per_op", float64(a.allocBytes-b.allocBytes)/ops, "B")
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		m.set("runtime.gc_cpu_frac", (a.gcCPU-b.gcCPU)/cpu, "ratio")
	}
	m.set("runtime.gc_cycles_per_kop", float64(a.gcCycles-b.gcCycles)*1000/ops, "count")

	// Closed-loop workloads alternate traced and untraced operations in
	// the traced window; the open loop compares the two windows.
	if frac, ok := traced.extra["trace_overhead"]; ok {
		m.set("trace.overhead_frac", frac, "ratio")
	} else if refP50 := summarize(ref.samples).P50; refP50 > 0 {
		m.set("trace.overhead_frac", summarize(traced.samples).P50/refP50-1, "ratio")
	}
	attempted := float64(max(ref.attempted, 1))
	m.set("e2e.fail_frac", float64(ref.failed())/attempted, "ratio")
	for _, cause := range failureCauses {
		var n int64
		for k, v := range ref.failures {
			if k == cause || strings.HasPrefix(k, cause+".") {
				n += v
			}
		}
		m.set("fail."+cause, float64(n), "count")
	}
	// The tail takes both halves: the attach half-windows alone hold too
	// few operations for a supported p99.
	tail := append(append([]time.Duration(nil), ref.samples...), traced.samples...)
	if lat := summarize(tail); lat.P99OK {
		m.set("e2e.op_p99_us", lat.P99, "us")
	}
	if p99, _, ok := chunkedP99(tail); ok {
		m.set("e2e.op_p99_us_chunked", p99, "us")
	}
}

// failureCauses is the closed set of failure labels a window may use;
// rejects are further labelled by code ("reject.revoked").
var failureCauses = []string{"timeout", "reject", "replay", "decode", "lost", "other"}

// settledGoroutines waits briefly for goroutines of closed servers to
// exit and returns the count.
func settledGoroutines(baseline int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > baseline; i++ {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func describeWindow(meta map[string]any, w *window) {
	meta["window_s"] = w.elapsed.Seconds()
	meta["op_samples"] = len(w.samples)
	if lat := summarize(w.samples); lat.P99OK {
		meta["op_p99_us"] = lat.P99
	}
	if p99, chunks, ok := chunkedP99(w.samples); ok {
		meta["op_p99_us_chunked"] = p99
		meta["op_p99_chunks"] = chunks
	}
	meta["attempted"] = w.attempted
	meta["completed"] = w.completed
	meta["failures"] = w.failures
	for k, v := range w.meta {
		meta[k] = v
	}
}

// runMeta records what a reader needs to interpret the numbers.
func runMeta(name string, seed int64, d time.Duration, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"seconds":       d.Seconds(),
		"trace":         traced,
		"commit":        commit,
		"source_sha256": sourceDigest("internal"),
		"go_version":    runtime.Version(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"network":       "loopback: UDP over 127.0.0.1, servers and load generator in one process, no real link",
		"cpu_scope":     "cpu_us_per_op is process user+sys CPU (getrusage): load generator and servers together",
	}
}

// sourceDigest hashes the Go sources under dir, identifying the code
// measured when the checkout carries no version-control metadata.
func sourceDigest(dir string) string {
	var files []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			return "unavailable"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(body))
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
