package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"unprotected"
)

const (
	// defaultSetups is how many times a run prepares its inputs; setup_s
	// is their median, so work moved into set-up shows.
	defaultSetups = 5
	// defaultRounds is the live-fleet workload's number of append rounds.
	defaultRounds = 2
	// maxProblems bounds the failure messages a run keeps.
	maxProblems = 20
)

// runner carries one benchmark run's settings and its check tally.
type runner struct {
	seed    uint64
	seconds float64
	dir     string
	// config builds the campaign configuration for a seed: the paper-scale
	// DefaultConfig, or a reduced one in the smoke tests.
	config func(seed uint64) *unprotected.Config
	rounds int
	setups int
	// controller is the configuration's permanently failing node (02-04
	// in the paper), excluded from MTBF-style analyses by every source
	// alike.
	controller string

	attempted, failed int64
	problems          []string
}

// check counts one output check; a false ok is a failed operation.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(fmt.Errorf(format, args...))
	}
}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, err.Error())
	}
}

func newRunner(seed uint64, seconds float64, dir string, config func(uint64) *unprotected.Config, rounds int) *runner {
	r := &runner{seed: seed, seconds: seconds, dir: dir, config: config, rounds: rounds, setups: defaultSetups}
	if cfg := config(seed); cfg.Profile != nil {
		r.controller = cfg.Profile.ControllerNode.String()
	}
	return r
}

// workload is one way of feeding the pipeline. setup prepares the inputs
// from the seed into dir; the returned state runs timed passes over them.
type workload struct {
	name  string
	setup func(ctx context.Context, r *runner, dir string) (state, error)
}

type state interface {
	// pass runs the workload's timed part once. A non-nil tracer records
	// spans around the calls into each layer; the untraced pass records
	// nothing.
	pass(ctx context.Context, r *runner, tr *tracer) (*passOut, error)
	// fingerprint summarizes the prepared inputs; every set-up of one
	// seed must produce the same one.
	fingerprint() string
	close() error
}

// passOut is what one pass measured.
type passOut struct {
	// study is the time from the workload's source to its first complete
	// Study; total is the whole timed part of the pass.
	study, total time.Duration
	// steps are the workload's named step timings.
	steps map[string]time.Duration
	// latencies are the pass's /study GET latencies in microseconds.
	latencies []float64
	// counters are deterministic: they repeat exactly for one seed.
	counters map[string]int64
	alloc    uint64
}

var workloads = map[string]*workload{
	"paper-sim":  {name: "paper-sim", setup: setupPaperSim},
	"replay":     {name: "replay", setup: setupReplay},
	"live-fleet": {name: "live-fleet", setup: setupLive},
}

func workloadNames() []string { return sortedKeys(workloads) }

// preparer is a state that needs work done once before its first timed
// pass but outside the set-up it times, such as building an oracle.
type preparer interface {
	prepare(ctx context.Context, r *runner) error
}

// prepare runs st's one-time preparation, if it has one.
func prepare(ctx context.Context, r *runner, st state) error {
	if p, ok := st.(preparer); ok {
		return p.prepare(ctx, r)
	}
	return nil
}

// setupN prepares the workload's inputs r.setups times, keeps the last
// state and returns every set-up's duration.
func (r *runner) setupN(ctx context.Context, w *workload) (state, []float64, error) {
	var times []float64
	var last state
	var fp string
	for i := 0; i < r.setups; i++ {
		if last != nil {
			if err := last.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		st, err := w.setup(ctx, r, filepath.Join(r.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			fp = st.fingerprint()
		} else {
			r.check(st.fingerprint() == fp, "%s set-up %d inputs %s differ from set-up 0's %s", w.name, i, st.fingerprint(), fp)
		}
		last = st
	}
	return last, times, nil
}

// timedPass runs one pass from a collected heap and records its
// allocation volume.
func timedPass(ctx context.Context, r *runner, st state, tr *tracer) (*passOut, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := st.pass(ctx, r, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out.alloc = after.TotalAlloc - before.TotalAlloc
	return out, nil
}

// measure is the untraced run: set up, then timed passes for r.seconds,
// reporting the medians as the end-to-end metrics.
func (r *runner) measure(ctx context.Context, w *workload) (*result, error) {
	st, setupTimes, err := r.setupN(ctx, w)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if err := prepare(ctx, r, st); err != nil {
		return nil, err
	}

	base := runtime.NumGoroutine()
	var outs []*passOut
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for len(outs) == 0 || time.Now().Before(deadline) {
		r.attempted++
		out, err := timedPass(ctx, r, st, nil)
		if err != nil {
			r.fail(fmt.Errorf("%s pass %d: %w", w.name, len(outs), err))
			break
		}
		if len(outs) > 0 {
			checkCounters(r, outs[0].counters, out.counters, len(outs))
		}
		outs = append(outs, out)
		err = drained(base)
		r.check(err == nil, "%s pass %d: %v", w.name, len(outs)-1, err)
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("%s: no pass completed: %v", w.name, r.problems)
	}

	var study, total, alloc []float64
	steps := map[string][]float64{}
	var lat []float64
	for _, o := range outs {
		study = append(study, o.study.Seconds())
		total = append(total, o.total.Seconds())
		alloc = append(alloc, float64(o.alloc)/1e6)
		for k, d := range o.steps {
			steps[k] = append(steps[k], d.Seconds())
		}
		lat = append(lat, o.latencies...)
	}
	res := r.result(w, false, len(outs))
	res.Counters = outs[0].counters
	res.Metrics = map[string]metric{
		"setup_s":  {median(setupTimes), "s"},
		"study_s":  {median(study), "s"},
		"pass_s":   {median(total), "s"},
		"alloc_mb": {median(alloc), "MB"},
	}
	res.Steps = map[string]metric{}
	for k, v := range steps {
		res.Steps[k] = metric{median(v), "s"}
	}
	if len(lat) > 0 {
		res.Steps["study_get_p50_us"] = metric{percentile(lat, 0.50), "us"}
		res.Steps["study_get_p99_us"] = metric{percentile(lat, 0.99), "us"}
		res.Steps["study_get_samples"] = metric{float64(len(lat)), "count"}
	}
	res.Steps["error_rate"] = metric{float64(r.failed) / float64(max(r.attempted, 1)), "ratio"}
	return res, nil
}

// result fills the fields every run reports.
func (r *runner) result(w *workload, traced bool, passes int) *result {
	return &result{
		Workload:  w.name,
		Seed:      r.seed,
		Seconds:   r.seconds,
		Traced:    traced,
		Correct:   r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Passes:    passes,
		Problems:  r.problems,
	}
}

// checkCounters asserts that a pass's deterministic counters repeat the
// first pass's exactly.
func checkCounters(r *runner, want, got map[string]int64, pass int) {
	keys := sortedKeys(want)
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.check(want[k] == got[k], "pass %d counter %s = %d, pass 0 had %d", pass, k, got[k], want[k])
	}
}

// renderReport renders the complete study, every chart and heatmap
// included.
func renderReport(s *unprotected.Study) []byte {
	var buf bytes.Buffer
	s.FullReport(&buf, unprotected.ReportOptions{Charts: true, Heatmaps: true})
	return buf.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// drained waits up to two seconds for the goroutine count to fall back to
// base, so nothing a pass started (monitor, HTTP server and client,
// worker pools) outlives it or runs beside the next measurement.
func drained(base int) error {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after the pass, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
