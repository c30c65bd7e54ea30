// Command benchmark is the repo benchmark: five served workloads
// against a real cinctd over loopback HTTP, seven end-to-end metrics,
// and a traced pass that replays the same operation lists in-process
// at each module boundary for the per-layer numbers. README.md in this
// directory says why each workload exists and how to read the output.
//
//	bash benchmark/run.sh --workload count_http --seed 1 --seconds 10 --trace 0  # one workload, the driver's form
//	go run -C benchmark . -seed 1 -out report.json                              # every workload, untraced then traced
//	go run -C benchmark . compare old.json new.json                             # verdict per (workload, metric)
//	go run -C benchmark . spec > BENCHMARK.json                                 # regenerate the driver's contract file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

// report is what a full run writes with -out and what compare reads.
type report struct {
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Quick       bool               `json:"quick"`
	NProc       int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Commit      string             `json:"commit"`
	Connections int                `json:"connections"`
	Sizes       sizes              `json:"sizes"` // the frozen corpus and list sizes the run used
	EndToEnd    map[string]*result `json:"end_to_end"`
	PerLayer    map[string]*result `json:"per_layer"`
	// Spec repeats the metric vocabulary, so a report read on its own
	// says what each number is and what it is expected to move.
	Spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	} `json:"spec"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) == 2 && os.Args[1] == "spec" {
		if err := writeBenchmarkJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+") and end with the driver's JSON line; empty runs all of them, untraced then traced")
		seed     = fs.Int64("seed", 1, "seed every input is derived from")
		seconds  = fs.Float64("seconds", runSeconds, "measured time per workload")
		trace    = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced replay")
		traceOut = fs.String("trace-out", "", "write the traced run's spans here as NDJSON (default: .bench_build/trace-<workload>.ndjson)")
		quick    = fs.Bool("quick", false, "small corpora, one pass per workload: a smoke run of a few seconds")
		out      = fs.String("out", "", "write the full run's report here as JSON, the input of `benchmark compare`")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	}

	rc := &runConfig{seed: *seed, seconds: *seconds, sz: fullSizes, setups: 5, out: stdout}
	if *quick {
		rc.sz, rc.maxPasses, rc.setups, rc.seconds = quickSizes, 1, 1, min(*seconds, 0.5)
	}
	var err error
	if rc.root, err = findRoot(); err != nil {
		return err
	}
	build := filepath.Join(rc.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	if rc.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return err
	}
	defer removeAll(rc.work)
	// An interrupted run must not leave a cinctd or its files behind.
	sigc, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sigc); close(done) }()
	go func() {
		select {
		case <-sigc:
			rc.procs.killAll()
			removeAll(rc.work)
			os.Exit(1)
		case <-done:
		}
	}()
	if rc.cinctd, err = buildDaemon(rc.root, rc.work); err != nil {
		return err
	}
	tracePath := func(name string) string {
		if *traceOut != "" {
			return *traceOut
		}
		return filepath.Join(build, "trace-"+name+".ndjson")
	}

	rep := &report{
		Seed: *seed, Seconds: rc.seconds, Quick: *quick,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(rc.root), Connections: loadConns, Sizes: rc.sz,
		EndToEnd: map[string]*result{}, PerLayer: map[string]*result{},
	}
	rep.Spec.EndToEnd, rep.Spec.PerLayer = endToEnd, perLayer
	fmt.Fprintf(stdout, "# seed=%d seconds=%g quick=%v nproc=%d GOMAXPROCS=%d %s commit=%s connections=%d\n",
		rep.Seed, rep.Seconds, rep.Quick, rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.Commit, loadConns)

	if *workload != "" {
		rc.traceOut = tracePath(*workload)
		res, err := rc.run(*workload, *trace == 1)
		if err != nil {
			return err
		}
		specs := endToEnd
		if *trace == 1 {
			specs = perLayer
		}
		printResult(stdout, res, specs)
		return printDriverLine(stdout, res, specs)
	}

	for _, name := range workloadNames {
		res, err := rc.run(name, false)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printResult(stdout, res, endToEnd)
		rep.EndToEnd[name] = res
	}
	for _, name := range workloadNames {
		rc.traceOut = tracePath(name)
		res, err := rc.run(name, true)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", name, err)
		}
		printResult(stdout, res, perLayer)
		rep.PerLayer[name] = res
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for name, res := range rep.EndToEnd {
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", name, res.Failed, res.Attempted)
		}
	}
	return nil
}

// commit names the working tree's commit when git can tell; the
// driver's checkout is not a repository.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult prints every metric of one run by name with its unit,
// spec metrics first in spec order, then the workload's extras.
func printResult(w io.Writer, res *result, specs []metricSpec) {
	fmt.Fprintf(w, "# %s ops_sha256=%s passes=%d ops_per_pass=%d attempted=%d failed=%d fail_ratio=%g\n",
		res.Workload, res.OpsSHA256, res.Passes, res.OpsPerPass, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	line := func(name string, v value) {
		fmt.Fprintf(w, "%-18s %-38s %16.4f %-6s", res.Workload, name, v.Value, v.Unit)
		if res.Passes > 1 && v.Spread > 0 {
			fmt.Fprintf(w, " spread=%.3f", v.Spread)
		}
		fmt.Fprintln(w)
	}
	for _, m := range specs {
		line(m.Name, res.Metrics[m.Name])
	}
	extras := make([]string, 0, len(res.Extra))
	for name := range res.Extra {
		extras = append(extras, name)
	}
	sort.Strings(extras)
	for _, name := range extras {
		line(name, res.Extra[name])
	}
}

// printDriverLine ends a single-workload run with the one JSON object
// the driver parses: exactly the listed metrics, each with its unit.
func printDriverLine(w io.Writer, res *result, specs []metricSpec) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		}
		line.Metrics[m.Name] = metric{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
