package chaos

import (
	"testing"
	"time"
)

// TestMetroSoak is the metro roaming acceptance scenario: users roam
// across a faulty, mid-wave-partitioned backbone with 100% session
// continuity, and every router refuses the closing revocation rollback.
// Short mode (and the race detector) runs a reduced metro; `make
// metro-soak` runs the full 8-router / 200-user configuration.
func TestMetroSoak(t *testing.T) {
	defer checkGoroutines(t)()
	cfg := MetroSoakConfig{
		Routers: 8,
		Users:   48,
		Moves:   3,
		Seed:    42,
		Logf:    t.Logf,
	}
	if testing.Short() || raceEnabled {
		cfg.Routers = 4
		cfg.Users = 12
		cfg.Moves = 2
		cfg.PartitionLen = time.Second
	}
	rep, err := RunMetroSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("metro soak: pairings=%d resumed=%d handoffsIn=%d handoffsOut=%d relayed=%d delivered=%d",
		rep.Wave.Pairings, rep.Wave.Resumed, rep.Wave.HandoffsIn, rep.Wave.HandoffsOut,
		rep.Wave.FramesRelayed, rep.Wave.Delivered)
	t.Logf("metro soak: injected=%+v partitioned=%s rollbacksRefused=%d",
		rep.Injected, rep.PartitionedRouter, rep.RollbacksRefused)
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Wave.Pairings != int64(rep.Users) {
		t.Fatalf("session continuity broken: %d pairings for %d users", rep.Wave.Pairings, rep.Users)
	}
	if rep.RollbacksRefused != rep.Routers {
		t.Fatalf("anti-rollback: %d/%d routers refused", rep.RollbacksRefused, rep.Routers)
	}
}
