package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain reads two files of --record lines (the parent's and the
// change's) and prints, per workload and metric, each side's median and
// quartiles and the change in medians. It refuses to compare results
// taken on different hosts: timings from two machines say nothing about
// the code.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench: usage: compare OLD.jsonl NEW.jsonl")
		return 2
	}
	var sides [2][]result
	for i, path := range args {
		rs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if len(rs) == 0 {
			fmt.Fprintf(stderr, "perfbench: %s holds no results\n", path)
			return 1
		}
		sides[i] = rs
	}
	base := sides[0][0].Host
	for i, rs := range sides {
		for _, r := range rs {
			if !r.Host.sameHost(base) {
				fmt.Fprintf(stderr, "perfbench: refusing to compare results from different hosts:\n  %+v (%s)\n  %+v (%s)\n",
					base, args[0], r.Host, args[i])
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", base.CPU, base.NProc, base.GOMAXPROCS, base.GoVersion)
	fmt.Fprintf(stdout, "%-11s %-26s %4s %12s %12s %9s %4s %12s %12s %9s %8s\n",
		"workload", "metric", "n", "old_median", "old_iqr", "old_iqr%", "n", "new_median", "new_iqr", "new_iqr%", "delta%")
	type key struct {
		workload, metric string
		traced           bool
	}
	values := [2]map[key][]float64{{}, {}}
	var keys []key
	for i, rs := range sides {
		for _, r := range rs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name, r.Traced}
				if i == 0 && values[0][k] == nil {
					keys = append(keys, k)
				}
				values[i][k] = append(values[i][k], m.Value)
			}
		}
	}
	for _, k := range keys {
		old, cur := values[0][k], values[1][k]
		if len(cur) == 0 {
			continue
		}
		om, nm := median(old), median(cur)
		oq1, oq3 := quartiles(old)
		nq1, nq3 := quartiles(cur)
		fmt.Fprintf(stdout, "%-11s %-26s %4d %12.6g %12.6g %8.1f%% %4d %12.6g %12.6g %8.1f%% %+7.1f%%\n",
			k.workload, k.metric, len(old), om, oq3-oq1, 100*(oq3-oq1)/om, len(cur), nm, nq3-nq1, 100*(nq3-nq1)/nm, 100*(nm-om)/om)
	}
	return 0
}

func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
