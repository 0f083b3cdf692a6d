package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"unprotected"
	"unprotected/internal/analysis"
	"unprotected/internal/campaign"
	"unprotected/internal/cluster"
	"unprotected/internal/eventlog"
	"unprotected/internal/extract"
	"unprotected/internal/faultstore"
	"unprotected/internal/kway"
	"unprotected/internal/logstore"
	"unprotected/internal/rng"
	"unprotected/internal/sched"
	"unprotected/internal/stream"
	"unprotected/internal/timebase"
)

// tracer collects the spans a traced pass records around its calls into
// the pipeline. A nil tracer records nothing, so the untraced passes run
// the same code with no tracing cost beyond a nil check.
type tracer struct {
	spans map[string]*span
}

// span aggregates every call recorded under one name. A zero-duration
// span only carries a count (segments written, epochs published).
type span struct {
	dur   time.Duration
	calls int64
	count int64
}

func (t *tracer) add(name string, d time.Duration, count int64) {
	if t == nil {
		return
	}
	if t.spans == nil {
		t.spans = map[string]*span{}
	}
	s := t.spans[name]
	if s == nil {
		s = &span{}
		t.spans[name] = s
	}
	s.dur += d
	s.calls++
	s.count += count
}

// splitSource is the Source wrapper a traced pass hands to Analyze: it
// splits the drain into time spent waiting on the wrapped producer and
// time spent in Analyze consuming each event.
type splitSource struct {
	src unprotected.Source
	tr  *tracer
}

func (s *splitSource) Events(ctx context.Context) iter.Seq2[unprotected.Event, error] {
	return func(yield func(unprotected.Event, error) bool) {
		var wait, consume time.Duration
		var n int64
		defer func() {
			s.tr.add("core.source_wait", wait, n)
			s.tr.add("core.consume", consume, n)
		}()
		// time.Since on a monotonic base reads one clock, not two, which
		// halves the wrapper's per-event cost.
		base := time.Now()
		last := time.Since(base)
		for ev, err := range s.src.Events(ctx) {
			now := time.Since(base)
			wait += now - last
			n++
			ok := yield(ev, err)
			last = time.Since(base)
			consume += last - now
			if !ok {
				return
			}
		}
		wait += time.Since(base) - last
	}
}

// layerDefs lists every per-layer metric with its unit, in print order.
var layerDefs = []struct{ name, unit string }{
	{"sched.windows_s", "s"}, {"sched.windows", "count"},
	{"timebase.to_local_ns", "ns"},
	{"campaign.events_s", "s"}, {"campaign.events", "count"},
	{"kway.fault_merge_s", "s"}, {"kway.session_merge_s", "s"}, {"kway.session_compares", "count"},
	{"stream.deliver_s", "s"},
	{"core.source_wait_s", "s"}, {"core.consume_s", "s"},
	{"analysis.fold_s", "s"}, {"analysis.events", "count"},
	{"render.report_s", "s"}, {"render.report_bytes", "bytes"},
	{"eventlog.parse_s", "s"}, {"eventlog.lines", "count"}, {"eventlog.parse_mb_per_s", "MB/s"},
	{"extract.collapse_s", "s"}, {"extract.records", "count"}, {"extract.runs", "count"},
	{"logstore.events_s", "s"}, {"logstore.bytes", "bytes"}, {"logstore.export_s", "s"},
	{"logstore.follow_lines", "count"}, {"logstore.follow_rounds", "count"}, {"logstore.follow_reopens", "count"},
	{"faultstore.ingest_s", "s"}, {"faultstore.bytes_written", "bytes"}, {"faultstore.segments", "count"},
	{"faultstore.scan_s", "s"},
	{"faultstore.segments_opened", "count"}, {"faultstore.segments_pruned", "count"}, {"faultstore.prune_ratio", "ratio"},
	{"monitor.round_s", "s"}, {"monitor.epochs", "count"}, {"monitor.study_bytes", "bytes"},
}

// traced is the --trace 1 run. It measures the workload once untraced
// (the end-to-end reference) and once traced, times every layer's public
// functions in isolation right after, and runs one traced pass of each
// other workload, so every per-layer metric is printed for every
// workload. It then attributes the workload's end-to-end time to the
// layers on its path. The probes read the replay workload's logs and
// store, so replay is set up first.
func (r *runner) traced(ctx context.Context, own *workload) (*result, error) {
	tracers := map[string]*tracer{}
	var ref, traced *passOut
	var passes int
	// run makes one traced pass, or for the measured workload pairs of
	// an untraced and a traced pass until r.seconds have passed, keeping
	// the medians: on a shared host single passes drift by a tenth or more.
	run := func(st state, name string, reference bool) error {
		var refs, outs []*passOut
		var trs []*tracer
		deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		for len(outs) == 0 || (reference && time.Now().Before(deadline)) {
			if reference {
				r.attempted++
				out, err := timedPass(ctx, r, st, nil)
				if err != nil {
					return fmt.Errorf("%s pass: %w", name, err)
				}
				refs = append(refs, out)
			}
			tr := &tracer{}
			r.attempted++
			out, err := timedPass(ctx, r, st, tr)
			if err != nil {
				return fmt.Errorf("%s traced pass: %w", name, err)
			}
			outs = append(outs, out)
			trs = append(trs, tr)
		}
		tracers[name] = medianTracer(trs)
		if reference {
			ref, traced = medianPass(refs), medianPass(outs)
			passes = len(refs) + len(outs)
		}
		return nil
	}
	setup := func(name string) (state, error) {
		st, err := workloads[name].setup(ctx, r, filepath.Join(r.dir, name))
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		if err := prepare(ctx, r, st); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	}

	st, err := setup("replay")
	if err != nil {
		return nil, err
	}
	rs := st.(*replayState)
	defer rs.close()
	if err := run(rs, "replay", own.name == "replay"); err != nil {
		return nil, err
	}
	if own.name != "replay" {
		st, err := setup(own.name)
		if err != nil {
			return nil, err
		}
		defer st.close()
		if err := run(st, own.name, true); err != nil {
			return nil, err
		}
	}
	probes, err := r.probeLayers(ctx, rs)
	if err != nil {
		return nil, err
	}
	for _, name := range workloadNames() {
		if tracers[name] != nil {
			continue
		}
		st, err := setup(name)
		if err != nil {
			return nil, err
		}
		err = run(st, name, false)
		st.close()
		if err != nil {
			return nil, err
		}
	}

	values := layerValues(probes, tracers, own.name)
	res := r.result(own, true, passes)
	res.Counters = ref.counters
	res.Metrics = map[string]metric{}
	for _, d := range layerDefs {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	res.table = attribution(own.name, ref, traced, values, r.rounds)
	return res, nil
}

// medianTracer keeps, for every span, the median duration across the
// passes; counts are deterministic and come from the first pass.
func medianTracer(trs []*tracer) *tracer {
	out := &tracer{spans: map[string]*span{}}
	for name, first := range trs[0].spans {
		var ds []float64
		for _, tr := range trs {
			if s := tr.spans[name]; s != nil {
				ds = append(ds, float64(s.dur))
			}
		}
		out.spans[name] = &span{dur: time.Duration(median(ds)), calls: first.calls, count: first.count}
	}
	return out
}

// medianPass returns the pass with the median total time.
func medianPass(outs []*passOut) *passOut {
	sorted := slices.Clone(outs)
	slices.SortFunc(sorted, func(a, b *passOut) int { return cmp.Compare(a.total, b.total) })
	return sorted[len(sorted)/2]
}

// layerValues merges the probe measurements with the spans of the traced
// passes. Spans around Analyze and FullReport come from the workload's
// own pass when it makes those calls, else from the replay pass.
func layerValues(probes map[string]float64, tracers map[string]*tracer, own string) map[string]float64 {
	v := map[string]float64{}
	for k, x := range probes {
		v[k] = x
	}
	spanOf := func(tr *tracer, name string) *span {
		if s := tr.spans[name]; s != nil {
			return s
		}
		return &span{}
	}
	coreTr := tracers[own]
	if coreTr.spans["core.source_wait"] == nil {
		coreTr = tracers["replay"]
	}
	v["core.source_wait_s"] = spanOf(coreTr, "core.source_wait").dur.Seconds()
	v["core.consume_s"] = spanOf(coreTr, "core.consume").dur.Seconds()
	rep := spanOf(coreTr, "render.report")
	v["render.report_s"] = rep.dur.Seconds()
	v["render.report_bytes"] = float64(rep.count / max(rep.calls, 1))

	replay := tracers["replay"]
	v["faultstore.ingest_s"] = spanOf(replay, "faultstore.ingest").dur.Seconds()
	v["faultstore.bytes_written"] = float64(spanOf(replay, "faultstore.bytes_written").count)
	v["faultstore.segments"] = float64(spanOf(replay, "faultstore.segments").count)
	opened := float64(spanOf(replay, "faultstore.segments_opened").count)
	pruned := float64(spanOf(replay, "faultstore.segments_pruned").count)
	v["faultstore.segments_opened"] = opened
	v["faultstore.segments_pruned"] = pruned
	v["faultstore.prune_ratio"] = pruned / max(opened+pruned, 1)

	live := tracers["live-fleet"]
	round := spanOf(live, "monitor.round")
	v["monitor.round_s"] = round.dur.Seconds() / float64(max(round.calls, 1))
	for _, k := range []string{"monitor.epochs", "monitor.study_bytes", "logstore.follow_lines", "logstore.follow_rounds", "logstore.follow_reopens"} {
		v[k] = float64(spanOf(live, k).count)
	}
	return v
}

// probeLayers times each layer's public functions in isolation over the
// seed's data: the campaign stream and its per-node streams, and the
// replay state's exported logs and fault store.
func (r *runner) probeLayers(ctx context.Context, rs *replayState) (map[string]float64, error) {
	v := map[string]float64{}
	cfg := r.config(r.seed)

	// sched: every scanned node's idle windows, seeded as the campaign
	// seeds them.
	gen := sched.NewGenerator(cfg.Sched)
	var windows []sched.Window
	var nWindows int
	v["sched.windows_s"] = medianTime(func() {
		nWindows = 0
		for _, node := range cfg.Topo.ScannedNodes() {
			windows = gen.AppendNodeWindows(windows[:0], node, rng.Derive(cfg.Seed, uint64(node.ID.Index())))
			nWindows += len(windows)
		}
	})
	v["sched.windows"] = float64(nWindows)

	// timebase: local-time conversion over a dense sample of the study
	// window (one instant every ~33 s).
	const samples = 1 << 20
	step := timebase.StudySeconds / samples
	hours := 0
	v["timebase.to_local_ns"] = medianTime(func() {
		for i := int64(0); i < samples; i++ {
			hours += timebase.T(i * step).HourOfDay()
		}
	}) * 1e9 / samples
	if hours == 0 {
		return nil, fmt.Errorf("timebase probe: every sampled hour is 0")
	}

	// campaign: drain the simulation stream, then drain it again untimed
	// to capture it, so the copies do not count against the campaign.
	var st stream.Stats
	var events int64
	t0 := time.Now()
	for ev, err := range campaign.Events(ctx, cfg) {
		if err != nil {
			return nil, fmt.Errorf("campaign probe: %w", err)
		}
		events++
		if ev.Kind == stream.KindStats {
			st = *ev.Stats
		}
	}
	v["campaign.events_s"] = time.Since(t0).Seconds()
	v["campaign.events"] = float64(events)
	var faults []extract.Fault
	var sessions []eventlog.Session
	for ev, err := range campaign.Events(ctx, r.config(r.seed)) {
		if err != nil {
			return nil, fmt.Errorf("campaign probe: %w", err)
		}
		switch ev.Kind {
		case stream.KindFault:
			faults = append(faults, ev.Fault)
		case stream.KindSession:
			sessions = append(sessions, ev.Session)
		}
	}

	// kway and stream: re-merge the captured stream from its per-node
	// sorted streams, as the campaign's delivery does.
	faultStreams := perNode(faults, func(f *extract.Fault) cluster.NodeID { return f.Node })
	sessionStreams := perNode(sessions, func(s *eventlog.Session) cluster.NodeID { return s.Host })
	buf := make([]stream.Event, 512)
	drop := func([]stream.Event) bool { return true }
	v["kway.fault_merge_s"] = medianTime(func() {
		kway.MergeBlocks(faultStreams, extract.Compare, buf, stream.FaultEvent, drop)
	})
	v["kway.session_merge_s"] = medianTime(func() {
		kway.MergeBlocks(sessionStreams, eventlog.CompareSessions, buf, stream.SessionEvent, drop)
	})
	// Count the comparator calls in a second, untimed merge: the counting
	// wrapper would otherwise inflate the timed one.
	var compares int64
	kway.MergeBlocks(sessionStreams, func(a, b *eventlog.Session) int {
		compares++
		return eventlog.CompareSessions(a, b)
	}, buf, stream.SessionEvent, drop)
	v["kway.session_compares"] = float64(compares)
	v["stream.deliver_s"] = medianTime(func() {
		stream.Deliver(ctx, func(stream.Event, error) bool { return true }, &st, faultStreams, sessionStreams)
	})

	// analysis: fresh stock accumulators fed the captured stream.
	v["analysis.fold_s"] = medianTime(func() {
		acc := analysis.NewAccumulators(cfg.Profile.ControllerNode)
		for _, f := range faults {
			acc.ObserveFault(f)
		}
		for _, s := range sessions {
			acc.ObserveSession(s)
		}
	})
	v["analysis.events"] = float64(len(faults) + len(sessions))
	faults, sessions, faultStreams, sessionStreams = nil, nil, nil, nil

	// logstore: the export set-up timed, and a full replay drain.
	v["logstore.export_s"] = rs.exportTime.Seconds()
	v["logstore.bytes"] = float64(rs.logBytes)
	t0 = time.Now()
	for _, err := range logstore.Events(ctx, rs.logDir, 0) {
		if err != nil {
			return nil, fmt.Errorf("logstore probe: %w", err)
		}
	}
	v["logstore.events_s"] = time.Since(t0).Seconds()

	// eventlog and extract: parse every exported line, then collapse each
	// node's records, one file at a time.
	if err := probeParse(rs.logDir, v); err != nil {
		return nil, err
	}

	// faultstore: a full scan of the store the replay pass ingested.
	store, err := faultstore.Open(rs.storeDir)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for _, err := range store.Events(ctx, faultstore.Query{}) {
		if err != nil {
			return nil, fmt.Errorf("faultstore probe: %w", err)
		}
	}
	v["faultstore.scan_s"] = time.Since(t0).Seconds()
	return v, nil
}

// medianTime runs f three times and returns the median duration in
// seconds: the in-memory probes are short enough that one slow run would
// otherwise decide the figure.
func medianTime(f func()) float64 {
	var ds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

// perNode splits a canonically ordered stream into per-node streams, in
// node order; each is sorted because it is a subsequence of a sorted one.
func perNode[T any](xs []T, node func(*T) cluster.NodeID) [][]T {
	by := map[int][]T{}
	for i := range xs {
		k := node(&xs[i]).Index()
		by[k] = append(by[k], xs[i])
	}
	keys := make([]int, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([][]T, len(keys))
	for i, k := range keys {
		out[i] = by[k]
	}
	return out
}

func probeParse(logDir string, v map[string]float64) error {
	names, err := logstore.ListNodeFiles(logDir)
	if err != nil {
		return err
	}
	var parse, collapse time.Duration
	var lines, runs, size int64
	var recs []eventlog.Record
	col := extract.NewCollapser()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		size += int64(len(data))
		recs = recs[:0]
		t0 := time.Now()
		for len(data) > 0 {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				i = len(data)
			}
			rec, err := eventlog.ParseBytes(data[:i])
			if err != nil {
				return fmt.Errorf("parse probe: %s: %w", name, err)
			}
			recs = append(recs, rec)
			data = data[min(i+1, len(data)):]
		}
		t1 := time.Now()
		for _, rec := range recs {
			col.Observe(rec)
		}
		out, _ := col.Close()
		collapse += time.Since(t1)
		parse += t1.Sub(t0)
		lines += int64(len(recs))
		runs += int64(len(out))
	}
	v["eventlog.parse_s"] = parse.Seconds()
	v["eventlog.lines"] = float64(lines)
	v["eventlog.parse_mb_per_s"] = float64(size) / 1e6 / parse.Seconds()
	v["extract.collapse_s"] = collapse.Seconds()
	v["extract.records"] = float64(lines)
	v["extract.runs"] = float64(runs)
	return nil
}

// term is one node of a workload's attribution tree: a traced span or a
// probe, with the probes it contains as children. A term's self time is
// its time minus its children's.
type term struct {
	name     string
	secs     float64
	count    float64
	children []*term
}

// attribution splits the workload's untraced end-to-end pass time over
// the layers on its path. The roots are spans of the traced pass, so
// their sum is the traced pass; below them, probe times stand in for the
// layers the spans contain, scaled by how often the pass runs them.
// Layers that run inside a worker pool count at probe time / GOMAXPROCS.
func attribution(own string, ref, traced *passOut, v map[string]float64, rounds int) []string {
	workers := float64(runtime.GOMAXPROCS(0))
	probe := func(name, countKey string, scale float64, children ...*term) *term {
		return &term{name: name, secs: v[name+"_s"] * scale, count: v[countKey] * scale, children: children}
	}
	deliver := func(scale float64) *term {
		return probe("stream.deliver", "analysis.events", scale,
			probe("kway.fault_merge", "", scale),
			probe("kway.session_merge", "kway.session_compares", scale))
	}
	logEvents := func() *term {
		return probe("logstore.events", "eventlog.lines", 1,
			probe("eventlog.parse", "eventlog.lines", 1/workers),
			probe("extract.collapse", "extract.records", 1/workers),
			deliver(1))
	}
	spanT := func(name, countKey string, children ...*term) *term {
		return &term{name: name, secs: v[name+"_s"], count: v[countKey], children: children}
	}

	var roots []*term
	switch own {
	case "paper-sim":
		roots = []*term{
			spanT("core.source_wait", "analysis.events",
				probe("campaign.events", "campaign.events", 1,
					probe("sched.windows", "sched.windows", 1/workers), deliver(1))),
			spanT("core.consume", "analysis.events", probe("analysis.fold", "analysis.events", 1)),
			spanT("render.report", "render.report_bytes"),
		}
	case "replay":
		// The store delivers one stream per segment, not per node, so the
		// per-node merge probe does not stand for its merge: the scan
		// counts as one layer.
		roots = []*term{
			spanT("core.source_wait", "analysis.events",
				logEvents(), probe("faultstore.scan", "", 1)),
			spanT("core.consume", "analysis.events", probe("analysis.fold", "analysis.events", 2)),
			spanT("render.report", "render.report_bytes"),
			spanT("faultstore.ingest", "faultstore.segments", logEvents()),
			{name: "faultstore.query", secs: traced.steps["store_query_s"].Seconds(), count: v["faultstore.segments_opened"]},
		}
	case "live-fleet":
		// Each rebuild re-merges and re-folds everything ingested so far:
		// the backlog share at cold start, one more slice every round.
		var share float64
		for i := 0; i <= rounds; i++ {
			share += backlogShare + (1-backlogShare)*float64(i)/float64(rounds)
		}
		roots = []*term{{
			name: "monitor.rounds", secs: traced.total.Seconds(), count: float64(rounds + 1),
			children: []*term{
				probe("eventlog.parse", "eventlog.lines", 1),
				probe("extract.collapse", "extract.records", 1),
				deliver(share),
				probe("analysis.fold", "analysis.events", share),
			},
		}}
	}

	type row struct {
		depth       int
		self, count float64
	}
	rows := map[string]*row{}
	var names []string
	var walk func(t *term, depth int)
	walk = func(t *term, depth int) {
		rw := rows[t.name]
		if rw == nil {
			rw = &row{depth: depth}
			rows[t.name] = rw
			names = append(names, t.name)
		}
		rw.self += t.secs
		rw.count += t.count
		for _, c := range t.children {
			rw.self -= c.secs
			walk(c, depth+1)
		}
	}
	var rootSum float64
	for _, t := range roots {
		rootSum += t.secs
		walk(t, 0)
	}

	// The rows, plus the traced time outside every span, minus the
	// tracing overhead, add up to the untraced pass.
	e2e, tot := ref.total.Seconds(), traced.total.Seconds()
	pct := func(x float64) string { return fmt.Sprintf("%6.1f%%", 100*x/e2e) }
	lines := []string{
		fmt.Sprintf("trace: %s untraced pass_s=%.4f traced pass_s=%.4f (self time = span or probe minus the probes inside it)", own, e2e, tot),
		fmt.Sprintf("trace: %-28s %10s %8s %14s", "layer", "self_s", "share", "count"),
	}
	for _, n := range names {
		rw := rows[n]
		label := strings.Repeat("  ", rw.depth) + n
		lines = append(lines, fmt.Sprintf("trace: %-28s %10.4f %s %14.0f", label, rw.self, pct(rw.self), rw.count))
	}
	lines = append(lines,
		fmt.Sprintf("trace: %-28s %10.4f %s", "remainder (not attributed)", tot-rootSum, pct(tot-rootSum)),
		fmt.Sprintf("trace: %-28s %10.4f %s", "tracing overhead", tot-e2e, pct(tot-e2e)),
		fmt.Sprintf("trace: timebase.to_local_ns=%.1f per call (runs inside sched, campaign and analysis; not summed)", v["timebase.to_local_ns"]))
	return lines
}
