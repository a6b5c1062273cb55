package chaos

import (
	"errors"
	"testing"
	"time"
)

// TestAttackSoak is the adaptive-DoS acceptance scenario: a spoofed-
// source flood an order of magnitude above the legitimate rate storms
// the attach ingress while half the fleet holds sessions and the other
// half attaches through the flood. The run must trip suspicion, ratchet
// the demanded difficulty at least two steps, refuse replayed solutions,
// keep ≥95% of the legit fleet on working sessions, buy the attacker
// (almost) no pairings, and decay back to difficulty zero within the
// bound once the storm stops. `make attack-soak` runs the full
// configuration; short mode and the race detector shrink it.
func TestAttackSoak(t *testing.T) {
	defer checkGoroutines(t)()
	cfg := AttackConfig{
		LegitUsers: 16,
		Seed:       42,
		StormLen:   2 * time.Second,
		Logf:       t.Logf,
	}
	if testing.Short() || raceEnabled {
		cfg.LegitUsers = 6
		cfg.Flooders = 2
		cfg.SpoofedSources = 4
		cfg.StormLen = 1500 * time.Millisecond
	}
	rep, err := RunAttackSoak(cfg)
	if err != nil {
		if errors.Is(err, ErrSpoofedBindUnsupported) {
			t.Skipf("host cannot bind secondary loopback addresses: %v", err)
		}
		t.Fatal(err)
	}
	t.Logf("attack: %d attacker datagrams, difficulty %d->%d->%d (decayed in %v)",
		rep.AttackerDatagrams, rep.BaseDifficulty, rep.PeakDifficulty, rep.FinalDifficulty, rep.DecayedIn)
	t.Logf("attack: legit alive=%d/%d keepalivesAcked=%d sessions=%d verifications=%d",
		rep.LegitAlive, rep.LegitUsers, rep.KeepalivesAcked, rep.SessionsEstablished, rep.ExpensiveVerifications)
	t.Logf("attack: puzzles issued=%d verified=%d rejected=%d replays=%d ratelimitDropped=%d",
		rep.PuzzlesIssued, rep.PuzzlesVerified, rep.PuzzlesRejected, rep.SolutionReplays, rep.RatelimitDropped)
	t.Logf("attack: solve cost %d@%d vs %d@%d, urlEpoch %d->%d",
		rep.SolveCostBase, rep.BaseDifficulty, rep.SolveCostPeak, rep.PeakDifficulty,
		rep.InitialURLEpoch, rep.FinalURLEpoch)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
}

// TestAttackConfigRange pins the spoofed address space: attacker fleets
// that would need an address outside 127.0.1.1–127.0.254.254 are a
// configuration error, refused before anything binds, and never
// mistaken for a host that cannot bind secondary loopback addresses.
func TestAttackConfigRange(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		ok   bool
	}{
		{"sources at the block size", func() error { return AttackConfig{SpoofedSources: 254}.withDefaults().validate() }, true},
		{"sources past the block", func() error { return AttackConfig{SpoofedSources: 255}.withDefaults().validate() }, false},
		{"flooders leaving the replayer a block", func() error { return AttackConfig{Flooders: 253}.withDefaults().validate() }, true},
		{"flooders taking the replayer's block", func() error { return AttackConfig{Flooders: 254}.withDefaults().validate() }, false},
		{"replayers at the block size", func() error { return AttackConfig{Replayers: 254}.withDefaults().validate() }, true},
		{"replayers past the block", func() error { return AttackConfig{Replayers: 255}.withDefaults().validate() }, false},
		{"calm latency baseline", func() error { return AttackLatencyConfig{}.withDefaults().validate() }, true},
		{"negative intensity", func() error { return AttackLatencyConfig{Intensity: -1}.withDefaults().validate() }, false},
		{"intensity filling every block", func() error { return AttackLatencyConfig{Intensity: 254 * 200}.withDefaults().validate() }, true},
		{"intensity past the last block", func() error { return AttackLatencyConfig{Intensity: 254*200 + 1}.withDefaults().validate() }, false},
		{"soak with 300 sources", func() error {
			_, err := RunAttackSoak(AttackConfig{SpoofedSources: 300})
			return err
		}, false},
		{"latency sweep past the last block", func() error {
			_, err := RunAttackLatency(AttackLatencyConfig{Intensity: 254*200 + 1})
			return err
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if tc.ok != (err == nil) {
				t.Fatalf("ok = %v, got err %v", tc.ok, err)
			}
			if errors.Is(err, ErrSpoofedBindUnsupported) {
				t.Fatalf("config error blamed on the host: %v", err)
			}
		})
	}
}
