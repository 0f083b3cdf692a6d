package logstore

import (
	"context"
	"fmt"
	"io"
	"iter"
	"sort"
	"sync"

	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/iofault"
	"unprotected/internal/stream"
)

// nodeStream is one log file's finalized, locally sorted contribution to
// the replay stream.
type nodeStream struct {
	faults   []extract.Fault
	sessions []eventlog.Session
	rawLogs  int64
	// rawByNode attributes raw volume by each run's host= field, not by
	// the file name — a file holding records of a foreign host (renamed or
	// concatenated logs) must credit the true host, matching fault
	// attribution.
	rawByNode map[cluster.NodeID]int64
}

// Events replays the directory and yields the merged stream as an
// iterator honouring the internal/stream contract, mirroring the campaign
// engine's Events: a stats prologue, faults in extract.Compare order,
// then sessions in eventlog.CompareSessions order.
//
// Every node file is read by a bounded stream.Gather pool (0 workers
// means GOMAXPROCS): each worker collapses and classifies one file (so §II-C
// extraction parallelizes across files) and sorts that node's faults and
// sessions locally, and two deterministic k-way merges (stream.Deliver)
// interleave the per-node streams into the canonical global orders. The
// merged dataset is never materialized here. Output is identical for any
// worker count: per-file work is independent, both comparators are total
// orders, and the merge consumes streams in file order, so scheduling
// cannot reorder anything.
//
// Cancelling ctx aborts the replay: unread files are skipped, the loader
// pool exits before the iterator yields its final (zero Event,
// ctx.Err()) pair, so an abandoned replay leaks no goroutines. By the
// first yield the pool has already wound down, so breaking out of the
// range releases everything immediately. Delivery itself performs no
// per-event allocation.
func Events(ctx context.Context, dir string, workers int) iter.Seq2[stream.Event, error] {
	return EventsFS(ctx, dir, workers, iofault.OS)
}

// EventsFS is Events with every file operation routed through fsys — the
// seam the chaos tests use to fail or tear the replay's reads.
func EventsFS(ctx context.Context, dir string, workers int, fsys iofault.FS) iter.Seq2[stream.Event, error] {
	return func(yield func(stream.Event, error) bool) {
		stats, faultStreams, sessionStreams, err := collect(ctx, dir, workers, fsys)
		if err != nil {
			yield(stream.Event{}, err)
			return
		}
		stream.Deliver(ctx, yield, stats, faultStreams, sessionStreams)
	}
}

// collect loads every node file on a stream.Gather pool and folds the
// per-file sorted streams, in file order, into the scalar stats — the
// engine under EventsFS. File order is the merge's deterministic
// equal-key tiebreak even if a directory holds two files for one node;
// a failing file fails the replay with the lowest-ordered file's error.
func collect(ctx context.Context, dir string, workers int, fsys iofault.FS) (*stream.Stats, [][]extract.Fault, [][]eventlog.Session, error) {
	files, err := listNodeFiles(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	streams, err := stream.Gather(ctx, workers, len(files), func(i int) (nodeStream, error) {
		return loadNodeFile(fsys, files[i])
	})
	if err != nil {
		return nil, nil, nil, err
	}

	stats := &stream.Stats{RawLogsByNode: make(map[cluster.NodeID]int64)}
	faultStreams := make([][]extract.Fault, 0, len(streams))
	sessionStreams := make([][]eventlog.Session, 0, len(streams))
	for i := range streams {
		ns := &streams[i]
		stats.Faults += len(ns.faults)
		stats.Sessions += len(ns.sessions)
		stats.RawLogs += ns.rawLogs
		for id, n := range ns.rawByNode {
			stats.RawLogsByNode[id] += n
		}
		if len(ns.faults) > 0 {
			faultStreams = append(faultStreams, ns.faults)
		}
		if len(ns.sessions) > 0 {
			sessionStreams = append(sessionStreams, ns.sessions)
		}
	}
	return stats, faultStreams, sessionStreams, nil
}

// collapserPool recycles per-file collapsers — and with them the
// struct-of-arrays run columns and the open-run slab they carry — across
// every file of a directory and across directories.
var collapserPool = sync.Pool{New: func() any { return extract.NewCollapser() }}

// loadNodeFile runs one file through the §II-C pipeline on the worker:
// records are collapsed into runs and sessions as they are read, then the
// node's faults and sessions are classified and sorted locally so the
// merge phase only merges.
func loadNodeFile(fsys iofault.FS, path string) (nodeStream, error) {
	var ns nodeStream
	f, err := fsys.Open(path)
	if err != nil {
		return ns, fmt.Errorf("logstore: %w", err)
	}
	defer f.Close()
	collapser := collapserPool.Get().(*extract.Collapser)
	defer func() {
		// Close already resets on the success path; Reset again is a no-op
		// there and cleans up after mid-file read errors.
		collapser.Reset()
		collapserPool.Put(collapser)
	}()
	acct := eventlog.NewAccounting()
	r := eventlog.NewReader(f)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return ns, fmt.Errorf("logstore: %s: %w", path, err)
		}
		acct.Observe(rec)
		collapser.Observe(rec)
	}
	runs, raw := collapser.Close()
	ns.rawLogs = raw
	if len(runs) > 0 {
		// Every ERROR record lands in exactly one run, so Σ run.Logs == raw
		// and grouping by run.Node splits the volume by true host.
		ns.rawByNode = make(map[cluster.NodeID]int64, 1)
		for _, r := range runs {
			ns.rawByNode[r.Node] += int64(r.Logs)
		}
	}
	ns.faults = extract.Faults(runs)
	extract.SortFaults(ns.faults)
	ns.sessions = acct.Finish()
	sort.Slice(ns.sessions, func(i, j int) bool {
		return eventlog.CompareSessions(&ns.sessions[i], &ns.sessions[j]) < 0
	})
	return ns, nil
}
