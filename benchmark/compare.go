package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges one metric's move from base to new against its bound.
// A metric whose passes disagreed within either run by more than the
// bound cannot resolve a change of that size: it is unresolved, never
// "same".
func verdict(m metricSpec, base, cur value) (ratio float64, v string) {
	if base.Value == 0 {
		return 0, verdictUnresolved
	}
	ratio = cur.Value / base.Value
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case base.Spread > m.Bound || cur.Spread > m.Bound:
		return ratio, verdictUnresolved
	case worse > m.Bound:
		return ratio, verdictWorse
	case worse < -m.Bound:
		return ratio, verdictBetter
	}
	return ratio, verdictSame
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints one row per (workload, end-to-end metric) of two
// full-run reports and returns the exit code: non-zero when any row is
// worse or any workload's fail ratio rose.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare old.json new.json")
		return 2
	}
	var reps [2]*report
	for i, path := range args {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		reps[i] = rep
	}
	return compareReports(reps[0], reps[1], w)
}

func compareReports(base, cur *report, w io.Writer) int {
	if base.Seed != cur.Seed || base.Quick != cur.Quick || base.Seconds != cur.Seconds {
		fmt.Fprintf(w, "# warning: runs differ in settings (seed %d vs %d, seconds %g vs %g, quick %v vs %v)\n",
			base.Seed, cur.Seed, base.Seconds, cur.Seconds, base.Quick, cur.Quick)
	}
	fmt.Fprintf(w, "# base %s, new %s\n", base.Commit, cur.Commit)
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	code := 0
	for _, name := range workloadNames {
		b, c := base.EndToEnd[name], cur.EndToEnd[name]
		if b == nil || c == nil {
			fmt.Fprintf(w, "%-18s missing from one report\n", name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			ratio, v := verdict(m, b.Metrics[m.Name], c.Metrics[m.Name])
			fmt.Fprintf(w, "%-18s %-24s %14.4f %14.4f %8.3f %6.2f  %s\n",
				name, m.Name, b.Metrics[m.Name].Value, c.Metrics[m.Name].Value, ratio, m.Bound, v)
			if v == verdictWorse {
				code = 1
			}
		}
		bf := float64(b.Failed) / float64(max(b.Attempted, 1))
		cf := float64(c.Failed) / float64(max(c.Attempted, 1))
		v := verdictSame
		if cf > bf {
			v, code = verdictWorse, 1
		}
		fmt.Fprintf(w, "%-18s %-24s %14.6f %14.6f %8s %6.2f  %s\n", name, "fail_ratio", bf, cf, "-", 0.0, v)
	}
	return code
}
