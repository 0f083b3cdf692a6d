package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unprotected/internal/faultstore"
	"unprotected/internal/logstore"
	"unprotected/internal/timebase"
)

// ingestFixtureStore exports the replay fixture as text logs and ingests
// them into a fresh store, returning both directories.
func ingestFixtureStore(t *testing.T) (logDir, storeDir string) {
	t.Helper()
	sessions, faults, _ := replayFixture()
	logDir = t.TempDir()
	if err := logstore.Export(sessions, faults, logDir); err != nil {
		t.Fatal(err)
	}
	storeDir = t.TempDir()
	if _, err := faultstore.Ingest(context.Background(), logDir, storeDir); err != nil {
		t.Fatal(err)
	}
	return logDir, storeDir
}

// TestStoreMatchesLogsReportFixture: the store source must be report
// byte-identical to replaying the text logs it was ingested from — the
// binary store changes the query cost, never the analysis.
func TestStoreMatchesLogsReportFixture(t *testing.T) {
	ctx := context.Background()
	logDir, storeDir := ingestFixtureStore(t)
	fromLogs, err := Analyze(ctx, Logs(logDir), WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := Analyze(ctx, Store(storeDir), WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	fromLogs.FullReport(&a, ReportOptions{Charts: true, Heatmaps: true})
	fromStore.FullReport(&b, ReportOptions{Charts: true, Heatmaps: true})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Analyze(Store) report diverges from Analyze(Logs)")
	}
}

// TestStoreMatchesLogsReportCampaign is the full-scale acceptance run:
// the seed-42 campaign, exported, ingested, and analyzed through both
// sources, must render byte-identical reports.
func TestStoreMatchesLogsReportCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	ctx := context.Background()
	res := RunPaperStudy(42).Dataset
	logDir := t.TempDir()
	if err := logstore.Export(res.Sessions, res.Faults, logDir); err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	if _, err := faultstore.Ingest(ctx, logDir, storeDir); err != nil {
		t.Fatal(err)
	}
	fromLogs, err := Analyze(ctx, Logs(logDir), WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := Analyze(ctx, Store(storeDir), WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	fromLogs.FullReport(&a, ReportOptions{Charts: true})
	fromStore.FullReport(&b, ReportOptions{Charts: true})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("seed-42: Analyze(Store) report diverges from Analyze(Logs)")
	}
}

// TestStorePredicates: the store source honors WithNodes/WithTimeRange
// and reports invalid values.
func TestStorePredicates(t *testing.T) {
	ctx := context.Background()
	_, storeDir := ingestFixtureStore(t)

	study, err := Analyze(ctx, Store(storeDir, WithNodes("01-02")), WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Dataset.Faults) == 0 {
		t.Fatal("node-filtered store delivered no faults")
	}
	for _, f := range study.Dataset.Faults {
		if f.Node.Blade != 1 || f.Node.SoC != 2 {
			t.Fatalf("WithNodes leaked fault of %v", f.Node)
		}
	}

	full, err := Analyze(ctx, Store(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	lo := full.Dataset.Faults[0].FirstAt
	hi := full.Dataset.Faults[len(full.Dataset.Faults)-1].FirstAt
	mid := (lo + hi) / 2
	ranged, err := Analyze(ctx, Store(storeDir,
		WithTimeRange(lo.Time(), mid.Time())))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ranged.Dataset.Faults); n == 0 || n >= len(full.Dataset.Faults) {
		t.Fatalf("time-ranged store delivered %d of %d faults", n, len(full.Dataset.Faults))
	}
	for _, f := range ranged.Dataset.Faults {
		if f.FirstAt < lo || f.FirstAt >= mid {
			t.Fatalf("WithTimeRange leaked fault at %v", f.FirstAt)
		}
	}

	// Invalid predicate values are reported before the store is opened.
	if _, err := Analyze(ctx, Store(storeDir, WithNodes())); err == nil ||
		!strings.Contains(err.Error(), "no nodes") {
		t.Fatalf("empty WithNodes error %v", err)
	}
	if _, err := Analyze(ctx, Store(storeDir, WithNodes("not-a-node"))); err == nil ||
		!strings.Contains(err.Error(), "WithNodes") {
		t.Fatalf("unparseable node error %v", err)
	}
	now := timebase.T(0).Time()
	if _, err := Analyze(ctx, Store(storeDir, WithTimeRange(now, now))); err == nil ||
		!strings.Contains(err.Error(), "not before") {
		t.Fatalf("empty time range error %v", err)
	}
}

// TestStoreDegraded: a corrupt segment fails the default strict
// analysis and is skipped (and accounted in the health report) under
// WithDegraded.
func TestStoreDegraded(t *testing.T) {
	ctx := context.Background()
	_, storeDir := ingestFixtureStore(t)

	full, err := Analyze(ctx, Store(storeDir), WithController("02-04"))
	if err != nil {
		t.Fatal(err)
	}

	segs, err := faultstore.Fsck(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if segs.SegmentsChecked < 2 {
		t.Fatalf("fixture store has %d segments, want several", segs.SegmentsChecked)
	}
	corruptOneSegment(t, storeDir)

	if _, err := Analyze(ctx, Store(storeDir), WithController("02-04")); err == nil {
		t.Fatal("strict analysis of a corrupt store must fail")
	}

	h := &StoreHealth{}
	degraded, err := Analyze(ctx, Store(storeDir, WithDegraded(h)), WithController("02-04"))
	if err != nil {
		t.Fatalf("degraded analysis failed: %v", err)
	}
	if h.Clean() || len(h.Skipped()) != 1 {
		t.Fatalf("health report = %v, want one skipped segment", h.Skipped())
	}
	if got := len(degraded.Dataset.Faults) + h.LostFaults(); got != len(full.Dataset.Faults) {
		t.Fatalf("delivered+lost = %d faults, want %d", got, len(full.Dataset.Faults))
	}
}

// corruptOneSegment flips a byte in the middle of one segment file.
func corruptOneSegment(t *testing.T, storeDir string) {
	t.Helper()
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		path := filepath.Join(storeDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no segment file found")
}

// TestStoreSourceReuse: a predicated Store source is a reusable value —
// analyzing it twice yields identical studies — and it narrows only
// itself: Store on the same directory still delivers the full set.
func TestStoreSourceReuse(t *testing.T) {
	ctx := context.Background()
	_, storeDir := ingestFixtureStore(t)
	src := Store(storeDir, WithNodes("01-02"))
	first, err := Analyze(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Analyze(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStudy(t, first, second)
	full, err := Analyze(ctx, Store(storeDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Dataset.Faults) <= len(first.Dataset.Faults) {
		t.Fatalf("unfiltered store delivered %d faults, the node-filtered one %d",
			len(full.Dataset.Faults), len(first.Dataset.Faults))
	}
}
