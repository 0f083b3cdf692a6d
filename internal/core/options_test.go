package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"unprotected/internal/campaign"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
)

// wrappedSource forwards Events and nothing else, the shape of any
// third-party decorator around a built-in source.
type wrappedSource struct{ stream.Source }

// TestOptionsHaveOneHome: every option is accepted in exactly one place,
// and given anywhere else it is an error naming its home — for every
// source, so Analyze can never silently drop a source option, not even
// over a wrapped or external Source.
func TestOptionsHaveOneHome(t *testing.T) {
	ctx := context.Background()
	logDir, storeDir := ingestFixtureStore(t)
	now := timebase.T(0).Time()
	opts := []struct {
		name string
		opt  Option
		home string
	}{
		{"WithWorkers", WithWorkers(2), "Logs or Store"},
		{"WithNodes", WithNodes("01-02"), "Store"},
		{"WithTimeRange", WithTimeRange(now, now.Add(time.Hour)), "Store"},
		{"WithDegraded", WithDegraded(nil), "Store"},
		{"WithController", WithController("02-04"), "Analyze"},
		{"WithObservers", WithObservers(&countingObserver{}), "Analyze"},
		{"WithoutDataset", WithoutDataset(), "Analyze"},
	}
	wantHome := func(t *testing.T, err error, name, home string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted outside %s", name, home)
		}
		if want := name + " goes to " + home; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the home (%q)", err, want)
		}
	}

	sources := []struct {
		name string
		src  stream.Source
	}{
		{"Simulate", Simulate(campaign.DefaultConfig(1))},
		{"Logs", Logs(logDir)},
		{"Store", Store(storeDir)},
		{"wrapped Store", wrappedSource{Store(storeDir)}},
		{"external", &customSource{}},
	}
	for _, o := range opts {
		if o.home != "Analyze" { // Analyze options are driven by the other Analyze tests
			for _, s := range sources {
				_, err := Analyze(ctx, s.src, o.opt)
				wantHome(t, err, o.name, o.home)
			}
		}
		for _, c := range []struct {
			name string
			src  stream.Source
		}{{"Logs", Logs(logDir, o.opt)}, {"Store", Store(storeDir, o.opt)}} {
			_, err := Analyze(ctx, c.src)
			if strings.Contains(o.home, c.name) {
				if err != nil {
					t.Fatalf("%s(dir, %s): %v", c.name, o.name, err)
				}
				continue
			}
			wantHome(t, err, o.name, o.home)
		}
	}

	// A wrapper around a predicated Store delivers exactly the Store's
	// own subset: the predicate lives in the source, not in Analyze.
	direct, err := Analyze(ctx, Store(storeDir, WithNodes("01-02")))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := Analyze(ctx, wrappedSource{Store(storeDir, WithNodes("01-02"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Dataset.Faults) == 0 {
		t.Fatal("node-filtered store delivered no faults")
	}
	assertSameStudy(t, direct, wrapped)
}
