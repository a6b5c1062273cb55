package chaos

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
)

// AttackLatencyConfig scripts one point of the attach-latency-vs-attack-
// intensity sweep (experiment E19): a fixed number of sequential
// legitimate attaches measured while Intensity spoofed sources flood the
// ingress at full rate.
type AttackLatencyConfig struct {
	// Intensity is how many spoofed sources flood the attach ingress for
	// the whole measurement (0 = calm baseline).
	Intensity int
	// Samples is how many legitimate attaches are timed. Default 12.
	Samples int
	// Seed drives every pseudo-random stream. Default 1.
	Seed int64
	// Policy is the adaptive defense installed on the router; the zero
	// value gets the same fast policy as AttackConfig.
	Policy core.DoSPolicy
	// RateLimitPerSec arms the server's per-source ingress limiter.
	// Default 50, as in AttackConfig.
	RateLimitPerSec float64
	// Warmup is how long the flood runs before the first timed attach, so
	// suspicion has tripped and the measured clients pay the real puzzle
	// price. Default 500ms (skipped when Intensity is 0).
	Warmup time.Duration
	// AttachTimeout bounds each timed attach. Default 30s.
	AttachTimeout time.Duration
}

func (c AttackLatencyConfig) withDefaults() AttackLatencyConfig {
	setDefault(&c.Samples, 12)
	if c.Seed == 0 {
		c.Seed = 1
	}
	if !c.Policy.Enabled {
		c.Policy = AttackConfig{}.withDefaults().Policy
	}
	setDefault(&c.RateLimitPerSec, 50)
	setDefault(&c.Warmup, 500*time.Millisecond)
	setDefault(&c.AttachTimeout, 30*time.Second)
	return c
}

// AttackLatencyReport is one row of the E19 sweep.
type AttackLatencyReport struct {
	Intensity int
	Samples   int
	Attached  int
	P50       time.Duration
	P99       time.Duration
	// PeakDifficulty is the highest difficulty the controller demanded
	// while the samples ran.
	PeakDifficulty uint8
	// FloodDatagrams is how many datagrams the flood delivered.
	FloodDatagrams int64
	// PuzzlesVerified counts the solutions the server's gate accepted —
	// under attack the legit attaches land here.
	PuzzlesVerified int64
}

// validate rejects intensities outside the spoofable address space:
// source i floods from 127.0.<1+i/200>.<1+i%200>.
func (c AttackLatencyConfig) validate() error {
	if c.Intensity < 0 || c.Intensity > spoofBlock*200 {
		return fmt.Errorf("chaos: intensity %d outside [0, %d]", c.Intensity, spoofBlock*200)
	}
	return nil
}

// RunAttackLatency measures legitimate-client attach latency at one
// attack intensity: Intensity spoofed sources spray garbage and
// skeleton M.2s at the ingress while Samples sequential attaches are
// timed over real UDP loopback.
func RunAttackLatency(cfg AttackLatencyConfig) (*AttackLatencyReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &AttackLatencyReport{Intensity: cfg.Intensity, Samples: cfg.Samples}
	f, err := newFleet(fleetSpec{
		// The samples cycle through four credentialed users.
		router: "MR-E19", group: "grp-e19", users: 4, dos: cfg.Policy,
		server: transport.ServerConfig{
			BootEpoch:         1,
			RateLimitPerSec:   cfg.RateLimitPerSec,
			DoSSampleInterval: 25 * time.Millisecond,
		},
		client: soakClient, clientSeed: cfg.Seed * 4_000_037,
		// The sample is time-to-session, attempts included: under a heavy
		// flood single attach attempts can exhaust their retransmit budget
		// to kernel-level receive drops, and a real client simply tries
		// again — the latency the row reports is what that client
		// experiences.
		attachTimeout: cfg.AttachTimeout, retry: true,
	}, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var flooding sync.WaitGroup
	defer func() {
		cancel()
		flooding.Wait()
	}()
	var sent atomic.Int64
	for i := 0; i < cfg.Intensity; i++ {
		conns, err := listenSpoofed(i/200, i%200, 1)
		if err != nil {
			return nil, err
		}
		flooding.Add(1)
		go func() {
			defer flooding.Done()
			// Paced at ~2000 datagrams/s per source, so intensity is a
			// controlled multiple of the legitimate handshake rate (each
			// source still exceeds its own rate-limit bucket ~40×). An
			// unpaced writer would saturate the kernel receive buffer and
			// measure socket-lottery starvation instead of the defense.
			flood(ctx, f.addr, conns, cfg.Seed*3_000_017+int64(i), 2, &sent)
		}()
	}
	if cfg.Intensity > 0 {
		time.Sleep(cfg.Warmup)
	}

	latencies := make([]time.Duration, 0, cfg.Samples)
	var lastErr error
	for i := 0; i < cfg.Samples; i++ {
		if a := f.attach(i); a.err == nil {
			latencies = append(latencies, a.latency)
			rep.Attached++
		} else {
			lastErr = a.err
		}
		if d := f.ln.Router.RequiredDifficulty(); d > rep.PeakDifficulty {
			rep.PeakDifficulty = d
		}
	}
	if rep.Attached == 0 {
		return nil, fmt.Errorf("chaos: no attach succeeded at intensity %d: %v", cfg.Intensity, lastErr)
	}
	rep.P50, rep.P99 = percentiles(latencies)
	rep.FloodDatagrams = sent.Load()
	rep.PuzzlesVerified = f.srv.Stats().DoSPuzzlesVerified()
	return rep, nil
}
