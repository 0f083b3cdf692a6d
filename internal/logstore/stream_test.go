package logstore

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/dram"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/rng"
	"unprotected/internal/stream"
	"unprotected/internal/thermal"
	"unprotected/internal/timebase"
)

// synthDir writes a synthetic but irregular multi-node directory: every
// node gets sessions (some truncated) and a fault mix with ties on FirstAt
// across nodes, so the merges actually have work to do.
func synthDir(t testing.TB, dir string, nodes, sessionsPer, faultsPer int) ([]eventlog.Session, []extract.Fault) {
	t.Helper()
	r := rng.New(99)
	var sessions []eventlog.Session
	var faults []extract.Fault
	day := timebase.T(86400)
	for n := 0; n < nodes; n++ {
		host := cluster.NodeID{Blade: n/15 + 1, SoC: n%15 + 1}
		for s := 0; s < sessionsPer; s++ {
			from := timebase.T(s)*4*3600 + timebase.T(r.IntN(600))
			sess := eventlog.Session{
				Host: host, From: from, To: from + 3*3600,
				AllocBytes: 3 << 30,
			}
			if s%7 == 3 {
				sess.Truncated = true
				sess.To = 0
			}
			sessions = append(sessions, sess)
		}
		for i := 0; i < faultsPer; i++ {
			// Deliberate cross-node FirstAt collisions (i-based, not
			// node-based) exercise merge tie-breaking by node.
			at := day + timebase.T(i)*731
			temp := thermal.NoReading
			if i%3 != 0 {
				temp = 20 + r.Float64()*30
			}
			faults = append(faults, extract.Classify(extract.RawRun{
				Node: host, Addr: dram.Addr(i * 17), FirstAt: at, LastAt: at + timebase.T(r.IntN(500)),
				Logs: 1 + r.IntN(40), Expected: 0xffffffff, Actual: uint32(0xffffffff &^ (1 << (i % 32))),
				TempC: temp,
			}))
		}
	}
	if err := Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	return sessions, faults
}

// replayed is a drained replay: the delivered faults and sessions in
// delivery order plus the stream's stats prologue. The slices shadow the
// prologue's Faults/Sessions counts; reach those as res.Stats.Faults.
type replayed struct {
	stream.Stats
	Faults   []extract.Fault
	Sessions []eventlog.Session
}

// replay drains Events over dir (workers 0 means GOMAXPROCS) into slices.
func replay(dir string, workers int) (*replayed, error) {
	return drain(Events(context.Background(), dir, workers))
}

// drain collects a complete stream. Besides the iterator's own errors it
// reports a malformed stream: a missing or misplaced stats prologue, a
// fault after a session, or a prologue whose counts disagree with the
// deliveries.
func drain(seq iter.Seq2[stream.Event, error]) (*replayed, error) {
	var res replayed
	sawStats := false
	for ev, err := range seq {
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case stream.KindStats:
			if sawStats || len(res.Faults) > 0 || len(res.Sessions) > 0 {
				return nil, errors.New("stats prologue repeated or not first")
			}
			sawStats = true
			res.Stats = *ev.Stats
		case stream.KindFault:
			if len(res.Sessions) > 0 {
				return nil, errors.New("fault delivered after a session")
			}
			res.Faults = append(res.Faults, ev.Fault)
		case stream.KindSession:
			res.Sessions = append(res.Sessions, ev.Session)
		default:
			return nil, fmt.Errorf("unexpected event kind %d", ev.Kind)
		}
	}
	if !sawStats {
		return nil, errors.New("stream ended without a stats prologue")
	}
	if res.Stats.Faults != len(res.Faults) || res.Stats.Sessions != len(res.Sessions) {
		return nil, fmt.Errorf("prologue counts (%d, %d) disagree with delivery (%d, %d)",
			res.Stats.Faults, res.Stats.Sessions, len(res.Faults), len(res.Sessions))
	}
	return &res, nil
}

// mustReplay is replay that fails the test on any error.
func mustReplay(t testing.TB, dir string, workers int) *replayed {
	t.Helper()
	res, err := replay(dir, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamDeterministicAcrossWorkers: the delivered sequences and stats
// must be identical for any worker-pool size (0 is GOMAXPROCS), and in
// canonical order.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	synthDir(t, dir, 40, 8, 25)

	ref := mustReplay(t, dir, 1)
	if len(ref.Faults) == 0 || len(ref.Sessions) == 0 {
		t.Fatal("stream delivered nothing")
	}
	for i := 1; i < len(ref.Faults); i++ {
		if extract.Compare(&ref.Faults[i-1], &ref.Faults[i]) >= 0 {
			t.Fatalf("fault %d out of canonical order", i)
		}
	}
	for i := 1; i < len(ref.Sessions); i++ {
		if eventlog.CompareSessions(&ref.Sessions[i-1], &ref.Sessions[i]) >= 0 {
			t.Fatalf("session %d out of canonical order", i)
		}
	}

	for _, workers := range []int{0, 2, 3, 8, 16, 64} {
		got := mustReplay(t, dir, workers)
		if !reflect.DeepEqual(got.Faults, ref.Faults) {
			t.Fatalf("workers=%d: fault stream differs", workers)
		}
		if !reflect.DeepEqual(got.Sessions, ref.Sessions) {
			t.Fatalf("workers=%d: session stream differs", workers)
		}
		if !reflect.DeepEqual(got.Stats, ref.Stats) {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, got.Stats, ref.Stats)
		}
	}
}

// TestStreamPropagatesWorkerErrors: corrupt files must fail the whole
// stream deterministically, whichever worker hits one first — the error
// is always the lowest-ordered corrupt file's.
func TestStreamPropagatesWorkerErrors(t *testing.T) {
	dir := t.TempDir()
	synthDir(t, dir, 10, 2, 2)
	first := filepath.Join(dir, FileName(cluster.NodeID{Blade: 1, SoC: 3}))
	later := filepath.Join(dir, FileName(cluster.NodeID{Blade: 1, SoC: 8}))
	if first >= later {
		t.Fatalf("file order assumption broken: %s sorts after %s", first, later)
	}
	for _, bad := range []string{first, later} {
		if err := os.WriteFile(bad, []byte("GARBAGE LINE\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want string
	for _, workers := range []int{1, 4, 16} {
		_, err := replay(dir, workers)
		if err == nil {
			t.Fatalf("workers=%d: corrupt files accepted", workers)
		}
		if !strings.Contains(err.Error(), first) || strings.Contains(err.Error(), later) {
			t.Fatalf("workers=%d: error does not name only the first corrupt file %s: %v", workers, first, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error %q differs from workers=1's %q", workers, err, want)
		}
	}
}

// TestStreamAttributesRawVolumeByRecordHost: a file holding records of a
// foreign host (renamed or concatenated logs) must credit the raw volume
// to the record's host= field, matching fault attribution — not to the
// node the file name claims.
func TestStreamAttributesRawVolumeByRecordHost(t *testing.T) {
	dir := t.TempDir()
	trueHost := cluster.NodeID{Blade: 2, SoC: 2}
	rec := eventlog.Record{
		Kind: eventlog.KindError, At: 100, Host: trueHost,
		VAddr: dram.VirtAddr(5), Expected: 0xffffffff, Actual: 0xfffffffe,
		TempC: thermal.NoReading, LastAt: 200, Logs: 9,
	}
	misnamed := filepath.Join(dir, FileName(cluster.NodeID{Blade: 1, SoC: 1}))
	if err := os.WriteFile(misnamed, []byte(rec.String()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := mustReplay(t, dir, 0)
	if len(res.Faults) != 1 || res.Faults[0].Node != trueHost {
		t.Fatalf("fault attribution: %+v", res.Faults)
	}
	if res.RawLogsByNode[trueHost] != 9 || len(res.RawLogsByNode) != 1 {
		t.Fatalf("raw volume credited to the wrong node: %v", res.RawLogsByNode)
	}
}

// TestStreamCampaignEquivalence is the replay/campaign equivalence
// contract: a campaign exported through the Store layout and re-read via
// Events yields the same faults (every field), the same sessions (modulo
// the truncated-session end instants the log format deliberately cannot
// carry — a lost END is unknowable), and raw-log accounting equal to the
// campaign's for every characterized node. It also pins the
// Σ run.Logs == RawLogs invariant the -from-logs analysis path assumes.
func TestStreamCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	cfg := campaign.DefaultConfig(7)
	res, err := drain(campaign.Events(context.Background(), cfg))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Export(res.Sessions, res.Faults, dir); err != nil {
		t.Fatal(err)
	}

	wantSessions := make([]eventlog.Session, len(res.Sessions))
	copy(wantSessions, res.Sessions)
	for i := range wantSessions {
		if wantSessions[i].Truncated {
			wantSessions[i].To = 0
		}
	}

	for _, workers := range []int{1, 8} {
		got := mustReplay(t, dir, workers)
		faults, sessions := got.Faults, got.Sessions

		if len(faults) != len(res.Faults) {
			t.Fatalf("workers=%d: faults %d, want %d", workers, len(faults), len(res.Faults))
		}
		for i := range faults {
			if faults[i] != res.Faults[i] {
				t.Fatalf("workers=%d: fault %d differs:\n got %+v\nwant %+v",
					workers, i, faults[i], res.Faults[i])
			}
		}
		if len(sessions) != len(wantSessions) {
			t.Fatalf("workers=%d: sessions %d, want %d", workers, len(sessions), len(wantSessions))
		}
		for i := range sessions {
			if sessions[i] != wantSessions[i] {
				t.Fatalf("workers=%d: session %d differs:\n got %+v\nwant %+v",
					workers, i, sessions[i], wantSessions[i])
			}
		}

		// Raw-log accounting: the export carries each characterized
		// fault's raw weight (logs=), so per-node volumes must round-trip
		// exactly for every node with faults. The pathological node's
		// ~98% raw share is excluded from characterization (§III-B) and
		// therefore from the extracted export.
		var sumLogs int64
		perNode := make(map[cluster.NodeID]int64)
		for _, f := range res.Faults {
			sumLogs += int64(f.Logs)
			perNode[f.Node] += int64(f.Logs)
		}
		if got.RawLogs != sumLogs {
			t.Fatalf("workers=%d: RawLogs %d, want Σ fault.Logs %d", workers, got.RawLogs, sumLogs)
		}
		if !reflect.DeepEqual(got.RawLogsByNode, perNode) {
			t.Fatalf("workers=%d: per-node raw logs diverge from campaign", workers)
		}
		for id, n := range perNode {
			if res.RawLogsByNode[id] != n {
				t.Fatalf("workers=%d: node %v raw logs %d, want campaign's %d",
					workers, id, n, res.RawLogsByNode[id])
			}
		}
		// Σ run.Logs == RawLogs: what studyFromLogs silently assumed.
		var runSum int64
		for _, f := range faults {
			runSum += int64(f.Logs)
		}
		if runSum != got.RawLogs {
			t.Fatalf("workers=%d: Σ run.Logs %d != RawLogs %d", workers, runSum, got.RawLogs)
		}
	}
}

// BenchmarkLogstoreStream measures the replay loader (Events, drained by
// a counting consumer) over a multi-hundred-node directory. workers=1 is the sequential baseline the
// parallel default must beat.
func BenchmarkLogstoreStream(b *testing.B) {
	dir := b.TempDir()
	synthDir(b, dir, 300, 60, 120)
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				faults := 0
				for ev, err := range Events(context.Background(), dir, workers) {
					if err != nil {
						b.Fatal(err)
					}
					if ev.Kind == stream.KindFault {
						faults++
					}
				}
				if faults == 0 {
					b.Fatal("empty stream")
				}
			}
		})
	}
}
