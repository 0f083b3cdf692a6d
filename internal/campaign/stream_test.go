package campaign

import (
	"context"
	"iter"
	"reflect"
	"sort"
	"testing"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/stream"
)

// --- streaming campaign tests ---
// (k-way merge unit tests live with the merge in internal/kway)

// result is a drained campaign: the delivered faults and sessions in
// delivery order plus the stream's stats prologue. The slices shadow the
// prologue's Faults/Sessions counts; reach those as res.Stats.Faults.
type result struct {
	stream.Stats
	Faults   []extract.Fault
	Sessions []eventlog.Session
}

// drainEvents ranges over a stream to its end, failing the test on an
// iterator error or a shape violation: the stats prologue must come first
// and exactly once, and every fault must precede every session.
func drainEvents(t testing.TB, seq iter.Seq2[stream.Event, error]) *result {
	t.Helper()
	var res result
	sawStats := false
	for ev, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			if sawStats || len(res.Faults) > 0 || len(res.Sessions) > 0 {
				t.Fatal("stats prologue repeated or not first")
			}
			sawStats = true
			res.Stats = *ev.Stats
		case stream.KindFault:
			if !sawStats || len(res.Sessions) > 0 {
				t.Fatal("fault delivered before the prologue or after a session")
			}
			res.Faults = append(res.Faults, ev.Fault)
		case stream.KindSession:
			if !sawStats {
				t.Fatal("session delivered before the prologue")
			}
			res.Sessions = append(res.Sessions, ev.Session)
		default:
			t.Fatalf("unexpected event kind %d", ev.Kind)
		}
	}
	if !sawStats {
		t.Fatal("stream ended without a stats prologue")
	}
	return &res
}

// run drains the complete Events stream of cfg, whose prologue must count
// exactly the deliveries that follow it.
func run(t testing.TB, cfg *Config) *result {
	t.Helper()
	res := drainEvents(t, Events(context.Background(), cfg))
	if res.Stats.Faults != len(res.Faults) || res.Stats.Sessions != len(res.Sessions) {
		t.Fatalf("prologue counts (%d, %d) disagree with delivery (%d, %d)",
			res.Stats.Faults, res.Stats.Sessions, len(res.Faults), len(res.Sessions))
	}
	return res
}

// legacyCollectAll is the pre-streaming engine: simulate every node
// sequentially, buffer every run, classify once and globally sort. It is
// the reference the streaming pipeline must reproduce byte for byte.
func legacyCollectAll(cfg *Config) *result {
	if cfg.Topo == nil {
		cfg.Topo = cluster.PaperTopology()
	}
	plans := cfg.Profile.build(cfg)
	res := &result{Stats: stream.Stats{RawLogsByNode: make(map[cluster.NodeID]int64)}}
	var allRuns []extract.RawRun
	// One shared scratch across every node, like a single worker would
	// use: the runs are copied out below before the next node overwrites
	// the buffer, so reuse here doubles as a reuse-safety check.
	sc := new(nodeScratch)
	for _, n := range cfg.Topo.ScannedNodes() {
		out := simulateNode(cfg, n, plans[n.ID], sc)
		if !out.excluded {
			allRuns = append(allRuns, out.runs...)
		}
		res.Sessions = append(res.Sessions, out.sessions...)
		res.RawLogs += out.rawLogs
		if out.rawLogs > 0 {
			res.RawLogsByNode[out.node] += out.rawLogs
		}
		res.AllocFails += out.allocFails
	}
	res.Faults = extract.Faults(allRuns)
	extract.SortFaults(res.Faults)
	sortSessionsLegacy(res.Sessions)
	res.Stats.Faults, res.Stats.Sessions = len(res.Faults), len(res.Sessions)
	return res
}

func sortSessionsLegacy(ss []eventlog.Session) {
	sort.Slice(ss, func(i, j int) bool {
		return eventlog.CompareSessions(&ss[i], &ss[j]) < 0
	})
}

// assertSameResult compares every dataset field of two drained campaigns.
func assertSameResult(t *testing.T, label string, a, b *result) {
	t.Helper()
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("%s: fault counts %d vs %d", label, len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("%s: fault %d differs: %+v vs %+v", label, i, a.Faults[i], b.Faults[i])
		}
	}
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatalf("%s: session counts %d vs %d", label, len(a.Sessions), len(b.Sessions))
	}
	for i := range a.Sessions {
		if a.Sessions[i] != b.Sessions[i] {
			t.Fatalf("%s: session %d differs", label, i)
		}
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, a.Stats, b.Stats)
	}
}

// TestStreamMatchesCollectAllAcrossWorkers: draining Events must
// reproduce the pre-streaming engine's dataset and stats byte for byte,
// for any worker count.
func TestStreamMatchesCollectAllAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	const seed = 21
	legacy := legacyCollectAll(DefaultConfig(seed))

	for _, workers := range []int{0, 1, 8} {
		cfg := DefaultConfig(seed)
		cfg.Workers = workers
		assertSameResult(t, "legacy vs streamed", legacy, run(t, cfg))
	}
}

func TestStreamEmitsCanonicalOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	cfg := DefaultConfig(9)
	cfg.Workers = 8
	res := run(t, cfg)
	if len(res.Faults) == 0 || len(res.Sessions) == 0 {
		t.Fatal("stream delivered nothing")
	}
	for i := 1; i < len(res.Faults); i++ {
		if extract.Compare(&res.Faults[i-1], &res.Faults[i]) >= 0 {
			t.Fatalf("fault %d out of order: %+v then %+v", i, res.Faults[i-1], res.Faults[i])
		}
	}
	for i := 1; i < len(res.Sessions); i++ {
		if eventlog.CompareSessions(&res.Sessions[i-1], &res.Sessions[i]) >= 0 {
			t.Fatalf("session %d out of order", i)
		}
	}
	if res.RawLogs == 0 || len(res.RawLogsByNode) == 0 || res.AllocFails == 0 {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}
}

// TestStreamBeginPrecedesDelivery: the stats prologue arrives before the
// first delivery, in time for a collecting consumer to preallocate from
// its exact counts.
func TestStreamBeginPrecedesDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	var announced *stream.Stats
	delivered := 0
	for ev, err := range Events(context.Background(), DefaultConfig(4)) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			if delivered != 0 {
				t.Fatal("stats prologue after first delivery")
			}
			announced = ev.Stats
		case stream.KindFault:
			delivered++
		}
	}
	if announced == nil || announced.Faults != delivered {
		t.Fatalf("prologue announced %v, delivered %d", announced, delivered)
	}
}
