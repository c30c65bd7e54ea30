package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickReport runs every workload in -quick mode, untraced then traced,
// against a real cinctd and returns the report it wrote.
func quickReport(t *testing.T, seed string) *report {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	var log bytes.Buffer
	if err := benchMain([]string{"-quick", "-seed", seed, "-out", out}, &log); err != nil {
		t.Fatalf("quick run: %v\n%s", err, log.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestQuickRun is the benchmark's smoke test: every normative workload
// and metric is emitted exactly once with its unit, nothing failed, and
// the kill-restart leg recovered every acknowledged row.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts cinctd processes")
	}
	rep := quickReport(t, "1")
	check := func(kind string, got map[string]*result, specs []metricSpec) {
		if len(got) != len(workloadNames) {
			t.Errorf("%s: %d workloads reported, want %d", kind, len(got), len(workloadNames))
		}
		for _, name := range workloadNames {
			res := got[name]
			if res == nil {
				t.Errorf("%s: workload %s missing", kind, name)
				continue
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s %s: %d of %d operations failed", kind, name, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s %s: %d metrics, want %d", kind, name, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s %s: metric %s missing", kind, name, m.Name)
				} else if v.Unit != m.Unit {
					t.Errorf("%s %s: %s has unit %q, want %q", kind, name, m.Name, v.Unit, m.Unit)
				}
			}
		}
	}
	check("end_to_end", rep.EndToEnd, endToEnd)
	check("per_layer", rep.PerLayer, perLayer)
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			if res := rep.EndToEnd[name]; res != nil && res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
	if ing := rep.EndToEnd[wGPSIngestMixed]; ing != nil {
		if ing.Extra["rows_accepted"].Value == 0 {
			t.Error("gps_ingest_mixed: no row was acknowledged, so the kill-restart leg checked nothing")
		}
		if lost := ing.Extra["rows_unrecovered"].Value; lost != 0 {
			t.Errorf("gps_ingest_mixed: %g acknowledged rows missing after SIGKILL and restart", lost)
		}
	}

	// The same seed must repeat: byte-identical operation lists and,
	// on the read-only workloads, exactly the same counts.
	again := quickReport(t, "1")
	exact := []string{"cinct.lf_steps_per_op", "cinct.candidates_per_hit", "engine.seals", "engine.compactions", "cinct.v3_bytes"}
	for _, name := range workloadNames {
		a, b := rep.PerLayer[name], again.PerLayer[name]
		if a == nil || b == nil {
			continue
		}
		if a.OpsSHA256 != b.OpsSHA256 || a.OpsSHA256 != rep.EndToEnd[name].OpsSHA256 {
			t.Errorf("%s: operation list digest differs between runs of one seed", name)
		}
		if name == wGPSIngestMixed {
			continue
		}
		for _, m := range exact {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s is %v then %v on the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
}

// TestSeedChangesInputs pins the other half of determinism: a
// different seed yields different operation lists.
func TestSeedChangesInputs(t *testing.T) {
	digests := func(seed int64) map[string]string {
		rc := &runConfig{seed: seed, sz: quickSizes}
		out := map[string]string{}
		for _, name := range workloadNames {
			c := rc.corpusFor(name)
			ops := workloadOps(name, c, rc.sz, seed)
			want := map[string]int{
				wCountHTTP: rc.sz.CountOps, wFindLocate: rc.sz.FindOps, wHotPaths: rc.sz.HotOps,
				wTemporalFind: rc.sz.TemporalOps, wGPSIngestMixed: rc.sz.ReadOps,
			}[name]
			if len(ops) != want {
				t.Errorf("seed %d %s: list holds %d operations, want %d", seed, name, len(ops), want)
			}
			d, err := workloadDigest(name, c, ops)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = d
		}
		return out
	}
	a, again, b := digests(1), digests(1), digests(2)
	for _, name := range workloadNames {
		if a[name] != again[name] {
			t.Errorf("%s: seed 1 gave two different lists", name)
		}
		if a[name] == b[name] {
			t.Errorf("%s: seeds 1 and 2 gave the same list", name)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, in step with spec.go, which the program reads.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeBenchmarkJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `go run -C benchmark . spec > BENCHMARK.json`")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract names exactly 6", len(doc))
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50, spread float64, failed int) *report {
		rep := &report{Seed: 1, Seconds: 8, EndToEnd: map[string]*result{}}
		for _, name := range workloadNames {
			res := &result{Workload: name, Attempted: 1000, Failed: failed, Metrics: map[string]value{}}
			for _, m := range endToEnd {
				res.Metrics[m.Name] = value{Value: 100, Unit: m.Unit}
			}
			res.Metrics["lat_p50_us"] = value{Value: p50, Unit: "us", Spread: spread}
			rep.EndToEnd[name] = res
		}
		return rep
	}
	base := mk(100, 0.01, 0)
	for _, tc := range []struct {
		name string
		cur  *report
		want string
		code int
	}{
		{"within bound", mk(105, 0.01, 0), verdictSame, 0},
		{"slower than bound", mk(150, 0.01, 0), verdictWorse, 1},
		{"faster than bound", mk(60, 0.01, 0), verdictBetter, 0},
		{"passes disagree", mk(150, 0.5, 0), verdictUnresolved, 0},
		{"more failures", mk(100, 0.01, 3), verdictSame, 1},
	} {
		var out bytes.Buffer
		code := compareReports(base, tc.cur, &out)
		if code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, wCountHTTP) && strings.Contains(line, "lat_p50_us") {
				row = line
			}
		}
		if !strings.HasSuffix(row, tc.want) {
			t.Errorf("%s: row %q, want verdict %s", tc.name, row, tc.want)
		}
	}
	if code := compareMain([]string{"only-one.json"}, io.Discard); code != 2 {
		t.Errorf("compare with one argument: exit code %d, want 2", code)
	}
}
