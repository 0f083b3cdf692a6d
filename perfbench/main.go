// Command perfbench is the repository's end-to-end benchmark. It drives
// the study pipeline only through public functions, in one of three
// workloads (see README.md for why each exists):
//
//	paper-sim   Analyze(Simulate(DefaultConfig(seed))) + FullReport
//	replay      Analyze(Logs) + FullReport, faultstore.Ingest,
//	            Analyze(Store) + FullReport, pruned store queries
//	live-fleet  monitor cold start over a 70% backlog, closed-loop append
//	            rounds, one closed-loop /study reader over loopback HTTP
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload replay --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run also times every layer from
// the benchmark's own code and the metrics are the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"unprotected"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 42, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1 prints the traced per-layer split instead of the end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for generated inputs (removed afterwards)")
	record := fs.String("record", "", "append the full result (host stamp, metrics, counters) as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := newRunner(*seed, *seconds, dir, unprotected.DefaultConfig, defaultRounds)
	var res *result
	if *trace == 1 {
		res, err = r.traced(ctx, w)
	} else {
		res, err = r.measure(ctx, w)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Host = stampHost()
	res.print(stdout)
	if *record != "" {
		if err := appendRecord(*record, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. Only summary() goes on the last
// line; the rest is printed for people and kept by --record.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      hostStamp         `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Passes    int               `json:"passes"`
	Metrics   map[string]metric `json:"metrics"`
	Steps     map[string]metric `json:"steps,omitempty"`
	Counters  map[string]int64  `json:"counters"`
	Problems  []string          `json:"problems,omitempty"`
	// table is the traced run's attribution, printed only.
	table []string
}

type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) summary() summaryLine {
	return summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// print writes the human-readable part of the result.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s dirty=%s\n",
		r.Host.CPU, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit, r.Host.Dirty)
	fmt.Fprintf(w, "workload: %s seed=%d seconds=%g traced=%v passes=%d\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Passes)
	for _, line := range r.table {
		fmt.Fprintln(w, line)
	}
	printMetrics(w, "metric", r.Metrics)
	printMetrics(w, "step", r.Steps)
	keys := sortedKeys(r.Counters)
	for _, k := range keys {
		fmt.Fprintf(w, "counter %-28s %d\n", k, r.Counters[k])
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d error_rate=%g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, p := range r.Problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
}

func printMetrics(w io.Writer, label string, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "%s %-28s %.6g %s\n", label, k, ms[k].Value, ms[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostStamp identifies the machine and build a result came from; compare
// refuses to put results from two different hosts side by side.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

// sameHost reports whether two stamps describe the same machine and
// toolchain. Commit and dirty flag may differ: that is what A/B compares.
func (h hostStamp) sameHost(o hostStamp) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func stampHost() hostStamp {
	h := hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	// The go command stamps VCS state into binaries built inside a git
	// work tree; a plain source checkout carries none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func appendRecord(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
