package campaign

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"unprotected/internal/cluster"
)

// gateTestConfig restricts the paper config to two blades so gated runs
// stay fast enough to repeat.
func gateTestConfig(seed uint64) *Config {
	cfg := DefaultConfig(seed)
	for _, n := range cfg.Topo.Nodes {
		if n.ID.Blade > 2 && n.Role == cluster.Scanned {
			n.Role = cluster.Excluded
		}
	}
	return cfg
}

// TestSweepGateEquivalence: a shared gate only schedules — the merged
// stream must be identical with no gate, a wide gate, and a serializing
// gate of one token.
func TestSweepGateEquivalence(t *testing.T) {
	want := run(t, gateTestConfig(11))
	if len(want.Faults) == 0 || len(want.Sessions) == 0 {
		t.Fatal("ungated reference campaign produced no stream")
	}
	for _, tokens := range []int{1, 2, 16} {
		cfg := gateTestConfig(11)
		cfg.Gate = make(chan struct{}, tokens)
		cfg.Workers = 4
		assertSameResult(t, fmt.Sprintf("gate cap %d", tokens), want, run(t, cfg))
	}
}

// TestSweepGateTokensReleased: campaigns sharing one gate must return
// every token — after a completed run AND after a cancelled run — or the
// next campaign on the same gate would starve. A leak shows up here as a
// test timeout.
func TestSweepGateTokensReleased(t *testing.T) {
	gate := make(chan struct{}, 1)

	first := gateTestConfig(3)
	first.Gate = gate
	first.Workers = 3
	if len(run(t, first).Faults) == 0 {
		t.Fatal("first gated campaign produced no faults")
	}

	// Cancel mid-simulation; the skip-on-done acquire path must not hold
	// a token either.
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	cancelled := gateTestConfig(4)
	cancelled.Gate = gate
	cancelled.Workers = 3
	var lastErr error
	for _, err := range Events(ctx, cancelled) {
		lastErr = err
	}
	timer.Stop()
	cancel()
	if lastErr != nil && !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("cancelled campaign ended with %v", lastErr)
	}

	// The full token budget must be available again.
	second := gateTestConfig(3)
	second.Gate = gate
	second.Workers = 3
	if len(run(t, second).Faults) == 0 {
		t.Fatal("second gated campaign produced no faults (token leaked?)")
	}
	if len(gate) != 0 {
		t.Fatalf("%d tokens still held after both campaigns", len(gate))
	}
}
