package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"unprotected"
	"unprotected/internal/cluster"
)

// smallConfig is the paper configuration cut down to its first two
// blades, so every workload runs in well under a second.
func smallConfig(seed uint64) *unprotected.Config {
	cfg := unprotected.DefaultConfig(seed)
	cfg.Topo = cluster.PaperTopology()
	for _, n := range cfg.Topo.Nodes {
		if n.ID.Blade > 2 && n.Role == cluster.Scanned {
			n.Role = cluster.Excluded
		}
	}
	return cfg
}

func smallRunner(t *testing.T) *runner {
	r := newRunner(3, 0.001, t.TempDir(), smallConfig, 2)
	r.setups = 2
	return r
}

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts the run reported exactly the declared metrics,
// with the declared units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestSpecWorkloads(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, on the
// reduced configuration: every output check must pass, every declared
// metric must be reported, and the deterministic counters must repeat
// exactly across runs of one seed.
func TestWorkloadsSmoke(t *testing.T) {
	sp := readSpec(t)
	ctx := context.Background()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			var counters []map[string]int64
			for i := 0; i < 2; i++ {
				r := smallRunner(t)
				res, err := r.measure(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: %d of %d checks failed: %v", i, res.Failed, res.Attempted, res.Problems)
				}
				checkMetrics(t, res.Metrics, sp.EndToEnd)
				for k, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("metric %s = %v, want > 0", k, m.Value)
					}
				}
				counters = append(counters, res.Counters)
			}
			if !mapsEqual(counters[0], counters[1]) {
				t.Errorf("counters differ across runs of one seed:\n%v\n%v", counters[0], counters[1])
			}

			r := smallRunner(t)
			res, err := r.traced(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced: %d checks failed: %v", res.Failed, res.Problems)
			}
			checkMetrics(t, res.Metrics, sp.PerLayer)
			var out bytes.Buffer
			res.print(&out)
			if !bytes.Contains(out.Bytes(), []byte("remainder (not attributed)")) {
				t.Errorf("traced output lacks the remainder row:\n%s", out.String())
			}
		})
	}
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareRefusesOtherHost checks that compare will not put results
// from two different machines side by side.
func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h hostStamp) string {
		path := filepath.Join(dir, name)
		res := &result{Workload: "replay", Host: h, Metrics: map[string]metric{"pass_s": {1, "s"}}}
		if err := appendRecord(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", hostStamp{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Commit: "c1"})
	b := write("b.jsonl", hostStamp{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Commit: "c2"})
	c := write("c.jsonl", hostStamp{CPU: "y", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Commit: "c2"})
	var out, errOut bytes.Buffer
	if code := compareMain([]string{a, b}, &out, &errOut); code != 0 {
		t.Fatalf("same host, two commits: exit %d: %s", code, errOut.String())
	}
	if code := compareMain([]string{a, c}, &out, &errOut); code == 0 {
		t.Fatal("compare accepted results from two different CPUs")
	}
}
