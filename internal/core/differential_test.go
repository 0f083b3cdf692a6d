package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/stream"
)

// --- differential harness: naive oracle vs Analyze ---
//
// The batched, pooled delivery path (stream.Deliver via Analyze) must be
// observationally identical to a deliberately naive one. The oracle
// shares no ordering code with the path under test: it drains the
// source into plain slices, restores the canonical orders with a stable
// sort over the total orders extract.Compare and
// eventlog.CompareSessions, and feeds the sorted slices to the study sink
// one element at a time — no k-way merge, no blocks, no pooled buffers.
// Each matrix cell requires both paths to collect the same dataset in
// the same order and to render the complete study — every figure,
// table, chart and heatmap — to the same bytes.

// diffConfig builds one matrix cell's campaign configuration.
func diffConfig(seed uint64, blades int, counterFrac float64, workers int) *campaign.Config {
	cfg := campaign.DefaultConfig(seed)
	cfg.Topo = topoWithBlades(blades)
	cfg.CounterModeFrac = counterFrac
	cfg.Workers = workers
	return cfg
}

// topoWithBlades restricts the paper roster to blades 1..n, like the
// sweep engine's cluster-size axis: scanned nodes beyond the cut are
// excluded, special roles keep their spots.
func topoWithBlades(n int) *cluster.Topology {
	topo := cluster.PaperTopology()
	for _, node := range topo.Nodes {
		if node.ID.Blade > n && node.Role == cluster.Scanned {
			node.Role = cluster.Excluded
		}
	}
	return topo
}

// naiveStudy is the collect-and-sort oracle: it drains src, checks the
// prologue counts against the deliveries, stably sorts both halves into
// canonical order and folds them through a fresh sink element by element.
func naiveStudy(t *testing.T, src stream.Source, controller, pathological cluster.NodeID, topo *cluster.Topology) *Study {
	t.Helper()
	var st *stream.Stats
	var faults []extract.Fault
	var sessions []eventlog.Session
	for ev, err := range src.Events(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case stream.KindStats:
			st = ev.Stats
		case stream.KindFault:
			faults = append(faults, ev.Fault)
		case stream.KindSession:
			sessions = append(sessions, ev.Session)
		}
	}
	if st == nil || st.Faults != len(faults) || st.Sessions != len(sessions) {
		t.Fatalf("prologue %+v disagrees with %d faults / %d sessions delivered", st, len(faults), len(sessions))
	}
	sort.SliceStable(faults, func(i, j int) bool { return extract.Compare(&faults[i], &faults[j]) < 0 })
	sort.SliceStable(sessions, func(i, j int) bool {
		return eventlog.CompareSessions(&sessions[i], &sessions[j]) < 0
	})
	sink := newStreamSink(controller, pathological)
	for _, f := range faults {
		sink.fault(f)
	}
	for _, s := range sessions {
		sink.session(s)
	}
	return sink.study(topo, st.RawLogs, st.RawLogsByNode)
}

func renderFull(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	s.FullReport(&buf, ReportOptions{Charts: true, Heatmaps: true})
	return buf.Bytes()
}

// assertSameStudy requires got to equal the oracle's study: the same
// dataset slices, element for element in delivery order (most figures
// are insensitive to how the per-node streams interleave, the slices are
// not), and byte-identical rendered reports.
func assertSameStudy(t *testing.T, want, got *Study) {
	t.Helper()
	if !slices.Equal(got.Dataset.Faults, want.Dataset.Faults) {
		t.Fatalf("Analyze delivered %d faults, the naive oracle %d, or in another order",
			len(got.Dataset.Faults), len(want.Dataset.Faults))
	}
	if !slices.Equal(got.Dataset.Sessions, want.Dataset.Sessions) {
		t.Fatalf("Analyze delivered %d sessions, the naive oracle %d, or in another order",
			len(got.Dataset.Sessions), len(want.Dataset.Sessions))
	}
	if w, g := renderFull(t, want), renderFull(t, got); !bytes.Equal(w, g) {
		t.Fatalf("Analyze report diverges from the naive oracle's (%d vs %d bytes)", len(g), len(w))
	}
}

// TestDifferentialDeliveryMatrix: workers × blades × pattern, naive
// oracle vs Analyze, byte for byte.
func TestDifferentialDeliveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of campaigns")
	}
	const seed = 1916
	for _, workers := range []int{1, 4} {
		for _, blades := range []int{2, 3} {
			for _, frac := range []float64{0, 0.15} {
				name := fmt.Sprintf("workers=%d/blades=%d/counter=%v", workers, blades, frac)
				t.Run(name, func(t *testing.T) {
					cfg := diffConfig(seed, blades, frac, workers)
					want := naiveStudy(t, Simulate(cfg),
						cfg.Profile.ControllerNode, cfg.Profile.PathologicalNode, cfg.Topo)
					study, err := Analyze(context.Background(), Simulate(diffConfig(seed, blades, frac, workers)))
					if err != nil {
						t.Fatal(err)
					}
					assertSameStudy(t, want, study)
					if n := stream.LiveBatches(); n != 0 {
						t.Fatalf("%d pooled delivery blocks leaked", n)
					}
				})
			}
		}
	}
}

// TestDifferentialCancelMidway: the cancellation cells of the matrix. A
// context cancelled mid-stream must deliver exactly the uncancelled
// prefix, then one (zero Event, ctx.Err()) pair and nothing else — and
// the pooled delivery block must be back in the pool when the iterator
// returns, no matter where inside a block the cancel landed.
func TestDifferentialCancelMidway(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of campaigns")
	}
	const seed = 1916
	for _, workers := range []int{1, 4} {
		cfg := diffConfig(seed, 2, 0.15, workers)
		var full []stream.Event
		for ev, err := range campaign.Events(context.Background(), cfg) {
			if err != nil {
				t.Fatal(err)
			}
			full = append(full, ev)
		}
		// Cancellation points straddling block boundaries (the internal
		// block size is 512) plus the stats prologue and a deep position.
		for _, after := range []int{1, 100, 511, 512, 513, len(full) / 2} {
			t.Run(fmt.Sprintf("workers=%d/after=%d", workers, after), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var events []stream.Event
				var finalErr error
				tail := 0
				for ev, err := range campaign.Events(ctx, cfg) {
					if finalErr != nil {
						tail++ // deliveries after the error pair: must stay 0
						continue
					}
					if err != nil {
						finalErr = err
						continue
					}
					events = append(events, ev)
					if len(events) == after {
						cancel()
					}
				}
				if finalErr != context.Canceled {
					t.Fatalf("final error %v, want context.Canceled", finalErr)
				}
				if tail != 0 {
					t.Fatalf("%d events delivered after ctx.Done", tail)
				}
				if len(events) != after {
					t.Fatalf("%d events before the error pair, want %d", len(events), after)
				}
				for i := range events {
					if events[i].Kind != full[i].Kind {
						t.Fatalf("event %d: kind %v vs %v", i, events[i].Kind, full[i].Kind)
					}
					switch events[i].Kind {
					case stream.KindFault:
						if events[i].Fault != full[i].Fault {
							t.Fatalf("event %d: fault diverges under cancellation", i)
						}
					case stream.KindSession:
						if events[i].Session != full[i].Session {
							t.Fatalf("event %d: session diverges under cancellation", i)
						}
					}
				}
				if n := stream.LiveBatches(); n != 0 {
					t.Fatalf("%d pooled delivery blocks leaked on cancellation", n)
				}
			})
		}
	}
}
