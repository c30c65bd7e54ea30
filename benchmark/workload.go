package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cinct"
)

// runConfig is everything one benchmark process is told: the seed, how
// long to measure, the frozen sizes, and where to build and write.
type runConfig struct {
	seed      int64
	seconds   float64 // measured time per workload
	sz        sizes
	maxPasses int // stop after this many passes even if time remains; 0 = time-bounded only
	setups    int // set-ups per run; setup_s is their median
	root      string
	work      string // scratch directory, removed on exit
	cinctd    string // path of the built daemon
	traceOut  string // where a traced run writes its spans
	out       io.Writer

	procs   procSet            // daemons currently running
	corpora map[string]*corpus // generated corpora by name
	runs    int                // counter for fresh data directories
	probes  *probes            // leaf-layer probe results, measured once per process
}

// value is one reported number.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"` // (max−min)/median over the run's passes
}

// result is one workload's outcome, untraced (end-to-end metrics) or
// traced (per-layer metrics).
type result struct {
	Workload   string           `json:"workload"`
	OpsSHA256  string           `json:"ops_sha256"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Passes     int              `json:"passes"`
	OpsPerPass int              `json:"ops_per_pass"`
	Metrics    map[string]value `json:"metrics"`
	// Extra holds numbers that exist only on this workload (per-kind
	// client latencies, ingest acknowledgement latency).
	Extra map[string]value `json:"extra,omitempty"`
}

func (r *result) set(specs []metricSpec, name string, v float64, spread float64) {
	for _, m := range specs {
		if m.Name == name {
			r.Metrics[name] = value{Value: v, Unit: m.Unit, Spread: spread}
			return
		}
	}
	panic("metric " + name + " is not in the spec")
}

func (r *result) extra(name, unit string, v float64) {
	if r.Extra == nil {
		r.Extra = map[string]value{}
	}
	r.Extra[name] = value{Value: v, Unit: unit}
}

// flushFor returns the cache-evicting list to replay before each pass
// over ops, or nil when none is needed. Only hot_paths is meant to be
// answered from the result cache; any other list short enough to fit in
// it would turn into cache hits from the second pass on. A list well
// past the cache's capacity evicts itself: replayed in order, each
// query returns only after more distinct ones than the cache holds.
func (rc *runConfig) flushFor(name string, c *corpus, ops []op) []op {
	if name == wHotPaths || len(ops) > rc.sz.cacheEntries()*9/8 {
		return nil
	}
	return flushOps(c, rc.sz, rc.seed)
}

// corpusFor returns the workload's corpus, generating each corpus once
// per process: a full run uses `standard` six times.
func (rc *runConfig) corpusFor(name string) *corpus {
	gen, key := standardCorpus, "standard"
	switch name {
	case wTemporalFind:
		gen, key = longCorpus, "long"
	case wGPSIngestMixed:
		gen, key = gridCorpus, "grid"
	}
	if rc.corpora == nil {
		rc.corpora = map[string]*corpus{}
	}
	if rc.corpora[key] == nil {
		rc.corpora[key] = gen(rc.sz, rc.seed)
	}
	return rc.corpora[key]
}

// served is one corpus built, saved and being served by a fresh cinctd.
type served struct {
	c      *corpus
	dir    string // data directory (one v3 file)
	walDir string // "" unless the corpus ingests
	file   string
	index  string
	flags  []string
	d      *daemon

	spatial  *cinct.Index
	temporal *cinct.TemporalIndex
	buildS   float64
	saveS    float64
	totalS   float64 // build → save → daemon answers
}

// setup builds c's index with its pinned options, saves it as a v3
// container into a fresh data directory, starts a cinctd on it and
// waits for /v1/indexes to answer. Corpus generation and `go build`
// are outside the clock: set-up time is the system's, not the
// generator's.
func (rc *runConfig) setup(c *corpus) (*served, error) {
	rc.runs++
	s := &served{c: c, dir: filepath.Join(rc.work, fmt.Sprintf("data-%d", rc.runs)), index: c.name}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var err error
	if c.temporal() {
		s.file = filepath.Join(s.dir, c.name+".tcinct")
		s.temporal, err = cinct.BuildTemporal(c.trajs, c.times, c.opts)
	} else {
		s.file = filepath.Join(s.dir, c.name+".cinct")
		s.spatial, err = cinct.Build(c.trajs, c.opts)
	}
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", c.name, err)
	}
	s.buildS = time.Since(t0).Seconds()
	t1 := time.Now()
	if err := saveFile(s.file, func(w io.Writer) (int64, error) {
		if s.temporal != nil {
			return s.temporal.SaveV3(w)
		}
		return s.spatial.SaveV3(w)
	}); err != nil {
		return nil, err
	}
	s.saveS = time.Since(t1).Seconds()
	if c.graph != nil {
		road := filepath.Join(rc.work, fmt.Sprintf("grid-%d.road", rc.runs))
		if err := c.graph.SaveFile(road); err != nil {
			return nil, err
		}
		s.walDir = filepath.Join(rc.work, fmt.Sprintf("wal-%d", rc.runs))
		s.flags = []string{"-wal", s.walDir, "-roadnet", road, "-seal-threshold", fmt.Sprint(sealThreshold)}
	}
	if rc.sz.CacheEntries > 0 {
		s.flags = append(s.flags, "-cache", fmt.Sprint(rc.sz.CacheEntries))
	}
	if err := s.start(rc); err != nil {
		return nil, err
	}
	s.totalS = time.Since(t0).Seconds()
	return s, nil
}

// start launches (or, after a kill, relaunches) cinctd on s's
// directories.
func (s *served) start(rc *runConfig) error {
	d, err := startDaemon(&rc.procs, rc.cinctd, s.dir, filepath.Join(rc.work, "cinctd.log"), s.flags...)
	if err != nil {
		return err
	}
	s.d = d
	return nil
}

// removeAll is os.RemoveAll for defer: the error has nowhere to go.
func removeAll(dir string) { os.RemoveAll(dir) } //nolint:errcheck

func saveFile(path string, save func(io.Writer) (int64, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := save(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// setupRepeated sets up rc.setups times and keeps the last daemon
// running. setup_s is the median, because a single set-up is at the
// mercy of one scheduling hiccup.
func (rc *runConfig) setupRepeated(c *corpus) (*served, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		s, err := rc.setup(c)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, s.totalS)
		if i == rc.setups-1 {
			return s, median(times), nil
		}
		s.d.stop()
	}
}

// runRead measures one read-only workload end to end: passes over the
// seed's operation list against a real cinctd over loopback HTTP, then
// an untimed check of a seed-fixed sample of answers against brute
// force.
func (rc *runConfig) runRead(name string) (*result, error) {
	c := rc.corpusFor(name)
	ops := workloadOps(name, c, rc.sz, rc.seed)
	digest, err := workloadDigest(name, c, ops)
	if err != nil {
		return nil, err
	}
	flush := rc.flushFor(name, c, ops)
	sample := sampleIndexes(len(ops), rc.sz.SampleMin, rc.seed)
	oracle := make(map[int]answer, len(sample))
	for _, i := range sample {
		oracle[i] = bruteForce(c, ops[i].q)
	}

	s, setupS, err := rc.setupRepeated(c)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()

	// An untimed pass finishes lazy set-up (page faults on the mapping,
	// connection establishment) and, where the cache is meant to work,
	// fills it. A list that is flushed before every pass anyway needs
	// only the first of those: a quarter of it touches the whole index.
	warm := ops
	if flush != nil {
		warm = ops[:len(ops)/4]
	}
	if _, err := runPass(s.d, s.index, warm, nil); err != nil {
		return nil, err
	}
	var passes []pass
	var kept []map[int]*answer
	var elapsed time.Duration
	for len(passes) == 0 || (elapsed.Seconds() < rc.seconds && (rc.maxPasses == 0 || len(passes) < rc.maxPasses)) {
		if flush != nil {
			if _, err := runPass(s.d, s.index, flush, nil); err != nil {
				return nil, err
			}
		}
		keep := make(map[int]*answer, len(sample))
		for _, i := range sample {
			keep[i] = &answer{count: -1}
		}
		p, err := runPass(s.d, s.index, ops, keep)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		kept = append(kept, keep)
		elapsed += p.wall
	}
	rss, err := s.d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	fileBytes, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}

	res := &result{
		Workload: name, OpsSHA256: digest, Passes: len(passes), OpsPerPass: len(ops),
		Metrics: map[string]value{},
	}
	var opsPerS, p50, p99 []float64
	var cpu float64
	done := 0
	for pi, p := range passes {
		res.Attempted += len(ops)
		res.Failed += p.failed
		// A wrong answer is a failed operation too. Operations that
		// already failed in transport kept count -1 and are not
		// counted twice.
		for _, i := range sample {
			got := *kept[pi][i]
			if got.count < 0 {
				continue
			}
			if diff := sameAnswer(ops[i].q, got, oracle[i]); diff != "" {
				res.Failed++
				fmt.Fprintf(rc.out, "# WRONG %s pass %d op %d: %s\n", name, pi, i, diff)
			}
		}
		ok := len(ops) - p.failed
		done += ok
		cpu += p.cpu
		sorted := sortedCopy(p.lat)
		opsPerS = append(opsPerS, float64(ok)/p.wall.Seconds())
		p50 = append(p50, percentile(sorted, 0.50))
		p99 = append(p99, percentile(sorted, 0.99))
		fmt.Fprintf(rc.out, "# %s pass %d: wall_s=%.3f lat_p50_us=%.1f lat_p99_us=%.1f cpu_s=%.3f\n",
			name, pi, p.wall.Seconds(), p50[pi], p99[pi], p.cpu)
	}
	res.set(endToEnd, "setup_s", setupS, 0)
	res.set(endToEnd, "ops_per_s", median(opsPerS), spread(opsPerS))
	res.set(endToEnd, "lat_p50_us", median(p50), spread(p50))
	res.set(endToEnd, "lat_p99_us", median(p99), spread(p99))
	res.set(endToEnd, "cpu_us_per_op", cpu*1e6/float64(max(done, 1)), 0)
	res.set(endToEnd, "peak_rss_mb", rss, 0)
	res.set(endToEnd, "served_bits_per_symbol", float64(fileBytes)*8/float64(c.symbols()), 0)
	res.extra("checked_ops", "count", float64(len(sample)*len(passes)))
	return res, nil
}

// run measures one workload, untraced or traced.
func (rc *runConfig) run(name string, traced bool) (*result, error) {
	switch {
	case traced:
		return rc.runTraced(name)
	case name == wGPSIngestMixed:
		return rc.runIngest()
	}
	return rc.runRead(name)
}

var bg = context.Background()
