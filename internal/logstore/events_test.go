package logstore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
)

// TestEventsMatchesStreamWorkers: the iterator must deliver exactly the
// sequence a collect-then-sort reference produces over the same directory
// — stats prologue first, then faults, then sessions, element for element
// — for every worker count. The reference loads every file on one worker,
// concatenates the per-node streams in file order and stable-sorts them
// globally, so it shares no merge code with Events.
func TestEventsMatchesStreamWorkers(t *testing.T) {
	dir := t.TempDir()
	synthDir(t, dir, 12, 9, 25)

	wantStats, faultStreams, sessionStreams, err := collect(context.Background(), dir, 1, iofault.OS)
	if err != nil {
		t.Fatal(err)
	}
	var wantFaults []extract.Fault
	var wantSessions []eventlog.Session
	for _, fs := range faultStreams {
		wantFaults = append(wantFaults, fs...)
	}
	for _, ss := range sessionStreams {
		wantSessions = append(wantSessions, ss...)
	}
	sort.SliceStable(wantFaults, func(i, j int) bool {
		return extract.Compare(&wantFaults[i], &wantFaults[j]) < 0
	})
	sort.SliceStable(wantSessions, func(i, j int) bool {
		return eventlog.CompareSessions(&wantSessions[i], &wantSessions[j]) < 0
	})
	if len(wantFaults) == 0 || len(wantSessions) == 0 {
		t.Fatal("reference replay delivered nothing")
	}

	for _, workers := range []int{0, 1, 3, 16} {
		got := mustReplay(t, dir, workers)
		if !reflect.DeepEqual(got.Stats, *wantStats) {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, got.Stats, *wantStats)
		}
		if len(got.Faults) != len(wantFaults) || len(got.Sessions) != len(wantSessions) {
			t.Fatalf("workers=%d: lengths differ", workers)
		}
		for i := range got.Faults {
			if got.Faults[i] != wantFaults[i] {
				t.Fatalf("workers=%d: fault %d differs", workers, i)
			}
		}
		for i := range got.Sessions {
			if got.Sessions[i] != wantSessions[i] {
				t.Fatalf("workers=%d: session %d differs", workers, i)
			}
		}
	}
}

// TestEventsSurfacesLoadErrors: a missing directory must surface as the
// iterator's error.
func TestEventsSurfacesLoadErrors(t *testing.T) {
	for ev, err := range Events(context.Background(), t.TempDir()+"/missing", 2) {
		if err == nil {
			t.Fatalf("delivered %+v from a missing directory", ev)
		}
		return
	}
	t.Fatal("iterator yielded nothing for a missing directory")
}

// TestEventsCancel: a pre-cancelled context must abort the replay with
// ctx.Err() and leave no loader goroutines behind; cancelling mid-stream
// must stop delivery on the spot.
func TestEventsCancel(t *testing.T) {
	dir := t.TempDir()
	synthDir(t, dir, 8, 6, 40)

	baseline := runtime.NumGoroutine()
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for ev, err := range Events(pre, dir, 4) {
		if err == nil {
			t.Fatalf("delivered %+v under a cancelled context", ev)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	faults := 0
	var sawErr error
	for ev, err := range Events(ctx, dir, 4) {
		if err != nil {
			sawErr = err
			break
		}
		if ev.Kind == stream.KindFault {
			if faults++; faults == 7 {
				cancelMid()
			}
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", sawErr)
	}
	if faults != 7 {
		t.Fatalf("delivered %d faults after cancel, want exactly 7", faults)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
