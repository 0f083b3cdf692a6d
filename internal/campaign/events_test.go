package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"unprotected/internal/stream"
)

// TestEventsMatchesStream: the iterator must deliver exactly the sequence
// the collect-all reference engine produces — same stats prologue (first,
// once), same faults in the same order, same sessions in the same order.
func TestEventsMatchesStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	want := legacyCollectAll(DefaultConfig(6))
	got := drainEvents(t, Events(context.Background(), DefaultConfig(6)))
	assertSameResult(t, "Events vs collect-all", want, got)
}

// TestEventsFiltered: each (needFaults, needSessions) combination must
// announce the full campaign's prologue, deliver only the requested
// halves, and deliver them exactly as the complete Events stream does.
func TestEventsFiltered(t *testing.T) {
	full := run(t, gateTestConfig(6))
	if len(full.Faults) == 0 || len(full.Sessions) == 0 {
		t.Fatal("reference campaign delivered nothing")
	}
	for _, tc := range []struct{ faults, sessions bool }{
		{true, true}, {true, false}, {false, true}, {false, false},
	} {
		name := fmt.Sprintf("faults=%v/sessions=%v", tc.faults, tc.sessions)
		t.Run(name, func(t *testing.T) {
			got := drainEvents(t, EventsFiltered(context.Background(), gateTestConfig(6), tc.faults, tc.sessions))
			if !reflect.DeepEqual(got.Stats, full.Stats) {
				t.Fatalf("prologue %+v, want the full campaign's %+v", got.Stats, full.Stats)
			}
			wantFaults, wantSessions := full.Faults, full.Sessions
			if !tc.faults {
				wantFaults = nil
			}
			if !tc.sessions {
				wantSessions = nil
			}
			if !slices.Equal(got.Faults, wantFaults) {
				t.Fatalf("delivered %d faults, want %d identical to Events'", len(got.Faults), len(wantFaults))
			}
			if !slices.Equal(got.Sessions, wantSessions) {
				t.Fatalf("delivered %d sessions, want %d identical to Events'", len(got.Sessions), len(wantSessions))
			}
		})
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (the pool can take a few scheduler beats to unwind).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventsCancelMidSimulation: cancelling while the worker pool is
// simulating must abort the campaign with ctx.Err() and wind every pool
// goroutine down before the iterator returns.
func TestEventsCancelMidSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	var sawErr error
	events := 0
	for ev, err := range Events(ctx, DefaultConfig(3)) {
		if err != nil {
			sawErr = err
			break
		}
		_ = ev
		events++
	}
	// The full campaign takes ~1s, so a 5ms cancel lands mid-simulation;
	// if this machine somehow finished first the test still must not leak.
	if sawErr != nil && !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", sawErr)
	}
	if sawErr == nil && events == 0 {
		t.Fatal("iterator ended with neither events nor an error")
	}
	waitForGoroutines(t, baseline)
}

// TestEventsCancelMidStream: cancelling between deliveries must surface
// ctx.Err() as the iterator's final pair instead of finishing the merge.
func TestEventsCancelMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faults := 0
	var sawErr error
	for ev, err := range Events(ctx, DefaultConfig(3)) {
		if err != nil {
			sawErr = err
			break
		}
		if ev.Kind == stream.KindFault {
			if faults++; faults == 100 {
				cancel()
			}
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", sawErr)
	}
	if faults != 100 {
		t.Fatalf("delivered %d faults after cancel, want exactly 100", faults)
	}
	waitForGoroutines(t, baseline)
}

// TestEventsEarlyBreak: breaking out of the range must stop the iterator
// without leaking; a fresh source must then deliver the full stream.
func TestEventsEarlyBreak(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	baseline := runtime.NumGoroutine()
	seen := 0
	for ev, err := range Events(context.Background(), DefaultConfig(3)) {
		if err != nil {
			t.Fatal(err)
		}
		_ = ev
		if seen++; seen == 10 {
			break
		}
	}
	if seen != 10 {
		t.Fatalf("consumed %d events, want 10", seen)
	}
	waitForGoroutines(t, baseline)
}

// TestEventsRejectsNegativeWorkers: a negative Config.Workers is a
// descriptive error before any node is simulated, not a pool silently
// clamped to GOMAXPROCS.
func TestEventsRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Workers = -3
	n := 0
	for ev, err := range Events(context.Background(), cfg) {
		n++
		if err == nil {
			t.Fatalf("Workers -3 delivered %+v, want an error", ev)
		}
		if want := "Workers must be >= 0, got -3"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if n != 1 {
		t.Fatalf("iterator yielded %d times, want exactly the error", n)
	}
}
