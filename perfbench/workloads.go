package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"unprotected"
	"unprotected/internal/cluster"
	"unprotected/internal/faultstore"
	"unprotected/internal/logstore"
	"unprotected/internal/timebase"
)

// analyze runs Analyze over src with the run's controller node. Passing
// the controller to Analyze, not to the source, keeps the result the
// same when the traced run wraps the source.
func analyze(ctx context.Context, r *runner, src unprotected.Source, tr *tracer) (*unprotected.Study, error) {
	if tr != nil {
		src = &splitSource{src: src, tr: tr}
	}
	return unprotected.Analyze(ctx, src, unprotected.WithController(r.controller))
}

// report renders s and, when traced, records the render span.
func report(s *unprotected.Study, tr *tracer) []byte {
	t0 := time.Now()
	out := renderReport(s)
	tr.add("render.report", time.Since(t0), int64(len(out)))
	return out
}

// ---- paper-sim ----

// simState holds the reference report every paper-sim pass must
// reproduce byte for byte.
type simState struct {
	ref []byte
}

// setupPaperSim runs the study once and keeps its report as the
// reference for the repeat-identity check.
func setupPaperSim(ctx context.Context, r *runner, _ string) (state, error) {
	study, err := analyze(ctx, r, unprotected.Simulate(r.config(r.seed)), nil)
	if err != nil {
		return nil, err
	}
	return &simState{ref: renderReport(study)}, nil
}

func (s *simState) fingerprint() string { return digest(s.ref) }
func (s *simState) close() error        { return nil }

func (s *simState) pass(ctx context.Context, r *runner, tr *tracer) (*passOut, error) {
	src := unprotected.Simulate(r.config(r.seed))
	t0 := time.Now()
	study, err := analyze(ctx, r, src, tr)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rep := report(study, tr)
	t2 := time.Now()
	if tr == nil {
		// The traced pass wraps the source, which hides the simulation's
		// own study metadata from Analyze; only untraced passes must
		// reproduce the reference.
		r.check(bytes.Equal(rep, s.ref), "paper-sim report %s differs from the set-up reference %s", digest(rep), digest(s.ref))
	}
	return &passOut{
		study: t1.Sub(t0),
		total: t2.Sub(t0),
		steps: map[string]time.Duration{"sim_study_s": t2.Sub(t0)},
		counters: map[string]int64{
			"faults":       int64(len(study.Dataset.Faults)),
			"sessions":     int64(len(study.Dataset.Sessions)),
			"report_bytes": int64(len(rep)),
		},
	}, nil
}

// ---- replay ----

// replayState is the seed's campaign exported as per-node text logs, plus
// the fixed set of pruned store queries.
type replayState struct {
	dir, logDir, storeDir string
	queries               []faultstore.Query
	files                 int
	logBytes, logLines    int64
	exportTime            time.Duration
}

// exportSeed simulates the seed and exports it as per-node log files in
// logDir, returning the study and the export's duration.
func exportSeed(ctx context.Context, r *runner, logDir string) (*unprotected.Study, time.Duration, error) {
	study, err := analyze(ctx, r, unprotected.Simulate(r.config(r.seed)), nil)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := logstore.Export(study.Dataset.Sessions, study.Dataset.Faults, logDir); err != nil {
		return nil, 0, fmt.Errorf("export: %w", err)
	}
	return study, time.Since(t0), nil
}

func setupReplay(ctx context.Context, r *runner, dir string) (state, error) {
	s := &replayState{dir: dir, logDir: filepath.Join(dir, "logs"), storeDir: filepath.Join(dir, "store")}
	study, d, err := exportSeed(ctx, r, s.logDir)
	if err != nil {
		return nil, err
	}
	s.exportTime = d
	if s.files, s.logBytes, s.logLines, err = countLogs(s.logDir); err != nil {
		return nil, err
	}
	s.queries = makeQueries(r.seed, study)
	return s, nil
}

func (s *replayState) fingerprint() string {
	return fmt.Sprintf("files=%d bytes=%d lines=%d queries=%v", s.files, s.logBytes, s.logLines, s.queries)
}

func (s *replayState) close() error { return os.RemoveAll(s.dir) }

// countLogs counts the node files in dir and their bytes and lines.
func countLogs(dir string) (files int, size, lines int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, 0, 0, err
		}
		files++
		size += int64(len(data))
		lines += int64(bytes.Count(data, []byte{'\n'}))
	}
	return files, size, lines, nil
}

// windowDays is one store time partition (faultstore.DefaultWindow) in
// days: a range query of that length can prune every other window.
var windowDays = int(faultstore.DefaultWindow / (24 * time.Hour))

// querySpecs is the fixed pruned-query mix: node-subset size and
// time-range length in days (0 = the whole study). Each shape has a
// source: a single node, as in the README's `faultstore query -nodes
// 02-04` and BenchmarkStoreQueryPruned; three nodes, the pruned query the
// benchmark's design sized; and each of them again restricted by
// `faultstore query -from/-to` to one store window.
var querySpecs = []struct{ nodes, days int }{
	{1, 0}, {1, windowDays}, {3, 0}, {3, windowDays},
}

// makeQueries draws the query mix's nodes and time ranges from the seed,
// among the nodes that logged sessions.
func makeQueries(seed uint64, study *unprotected.Study) []faultstore.Query {
	seen := map[cluster.NodeID]bool{}
	var hosts []cluster.NodeID
	for _, s := range study.Dataset.Sessions {
		if !seen[s.Host] {
			seen[s.Host] = true
			hosts = append(hosts, s.Host)
		}
	}
	slices.SortFunc(hosts, func(a, b cluster.NodeID) int { return a.Index() - b.Index() })
	rng := rand.New(rand.NewPCG(seed, 0x51ed2701))
	studyDays := int(timebase.StudySeconds / 86400)
	var qs []faultstore.Query
	for _, spec := range querySpecs {
		var q faultstore.Query
		for _, i := range rng.Perm(len(hosts))[:min(spec.nodes, len(hosts))] {
			q.Nodes = append(q.Nodes, hosts[i])
		}
		slices.SortFunc(q.Nodes, func(a, b cluster.NodeID) int { return a.Index() - b.Index() })
		if spec.days > 0 {
			from := rng.IntN(studyDays - spec.days)
			q.HasRange = true
			q.From = timebase.T(int64(from) * 86400)
			q.To = timebase.T(int64(from+spec.days) * 86400)
		}
		qs = append(qs, q)
	}
	return qs
}

func (s *replayState) pass(ctx context.Context, r *runner, tr *tracer) (*passOut, error) {
	if err := os.RemoveAll(s.storeDir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	logs, err := analyze(ctx, r, unprotected.Logs(s.logDir), tr)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	logsReport := report(logs, tr)
	t2 := time.Now()
	ist, err := faultstore.Ingest(ctx, s.logDir, s.storeDir)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	tr.add("faultstore.ingest", t3.Sub(t2), int64(ist.Segments))
	full, err := analyze(ctx, r, unprotected.Store(s.storeDir), tr)
	if err != nil {
		return nil, err
	}
	storeReport := report(full, tr)
	t4 := time.Now()
	counts, opened, pruned, err := runQueries(ctx, s.storeDir, s.queries)
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	tr.add("faultstore.query", t5.Sub(t4), int64(len(s.queries)))
	tr.add("faultstore.bytes_written", 0, ist.Bytes)
	tr.add("faultstore.segments", 0, int64(ist.Segments))
	tr.add("faultstore.segments_opened", 0, opened)
	tr.add("faultstore.segments_pruned", 0, pruned)

	r.check(bytes.Equal(logsReport, storeReport), "replay: Logs report %s and Store report %s differ", digest(logsReport), digest(storeReport))
	for i, q := range s.queries {
		want := naiveCounts(full, q)
		r.check(counts[i] == want, "replay: query %d (%d nodes, range %v) delivered %v, naive filter over the full scan gives %v",
			i, len(q.Nodes), q.HasRange, counts[i], want)
	}
	return &passOut{
		study: t1.Sub(t0),
		total: t5.Sub(t0),
		steps: map[string]time.Duration{
			"logs_study_s":   t2.Sub(t0),
			"store_ingest_s": t3.Sub(t2),
			"store_study_s":  t4.Sub(t3),
			"store_query_s":  t5.Sub(t4),
		},
		counters: map[string]int64{
			"faults":          int64(len(full.Dataset.Faults)),
			"sessions":        int64(len(full.Dataset.Sessions)),
			"report_bytes":    int64(len(logsReport)),
			"store_segments":  int64(ist.Segments),
			"store_bytes":     ist.Bytes,
			"segments_opened": opened,
			"segments_pruned": pruned,
			"query_records":   sumCounts(counts),
			"log_files":       int64(s.files),
			"log_bytes":       s.logBytes,
			"log_lines":       s.logLines,
		},
	}, nil
}

// recordCount is one query's delivered faults and sessions.
type recordCount struct{ faults, sessions int64 }

func sumCounts(cs []recordCount) int64 {
	var n int64
	for _, c := range cs {
		n += c.faults + c.sessions
	}
	return n
}

// runQueries runs each query against a freshly opened store and returns
// the delivered counts and the segments the index opened and pruned.
func runQueries(ctx context.Context, storeDir string, qs []faultstore.Query) ([]recordCount, int64, int64, error) {
	var opened, pruned int64
	counts := make([]recordCount, len(qs))
	for i, q := range qs {
		st, err := faultstore.Open(storeDir)
		if err != nil {
			return nil, 0, 0, err
		}
		for ev, err := range st.Events(ctx, q) {
			if err != nil {
				return nil, 0, 0, fmt.Errorf("query %d: %w", i, err)
			}
			switch ev.Kind {
			case unprotected.EventFault:
				counts[i].faults++
			case unprotected.EventSession:
				counts[i].sessions++
			}
		}
		opened += st.SegmentsOpened()
		pruned += st.SegmentsPruned()
	}
	return counts, opened, pruned, nil
}

// naiveCounts is the query oracle: a plain filter over the full-scan
// dataset, sharing no code with the store's index or decoder.
func naiveCounts(s *unprotected.Study, q faultstore.Query) recordCount {
	in := func(id cluster.NodeID, at timebase.T) bool {
		if q.HasRange && (at < q.From || at >= q.To) {
			return false
		}
		return len(q.Nodes) == 0 || slices.Contains(q.Nodes, id)
	}
	var c recordCount
	for _, f := range s.Dataset.Faults {
		if in(f.Node, f.FirstAt) {
			c.faults++
		}
	}
	for _, ss := range s.Dataset.Sessions {
		if in(ss.Host, ss.From) {
			c.sessions++
		}
	}
	return c
}
