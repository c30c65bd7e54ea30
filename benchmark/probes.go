package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cinct"
	"cinct/internal/bitvec"
	"cinct/internal/engine"
	"cinct/internal/experiments"
	"cinct/internal/fmindex"
	"cinct/internal/gps"
	"cinct/internal/mapmatch"
	"cinct/internal/querygen"
	"cinct/internal/tempo"
	"cinct/internal/trajgen"
	"cinct/internal/wal"
)

// probes holds the leaf-layer numbers that do not depend on which
// workload is being traced: each is measured on its own small input
// derived from the seed, by calling the layer's public functions.
// Every traced run reports them, so a change to the matcher or the WAL
// shows on the read-only workloads' traces as "did not move".
type probes struct {
	metrics map[string]float64
	extra   map[string]value
}

// leafProbes measures the workload-independent layers once per
// process.
func (rc *runConfig) leafProbes(tr *tracer) (*probes, error) {
	if rc.probes != nil {
		return rc.probes, nil
	}
	p := &probes{metrics: map[string]float64{}, extra: map[string]value{}}
	p.metrics["trace.span_cost_ns"] = spanCostNS()
	rc.probeBitvec(p)
	rc.probeTempo(p)
	grid := rc.corpusFor(wGPSIngestMixed)
	rows, cols, err := rc.probeMatcher(p, tr, grid)
	if err != nil {
		return nil, err
	}
	if err := rc.probeWAL(p, tr, rows, cols); err != nil {
		return nil, err
	}
	if err := rc.probeEngineIngest(p, tr, grid, rows, cols); err != nil {
		return nil, err
	}
	if err := rc.probeDelta(p, grid, rows, cols); err != nil {
		return nil, err
	}
	if err := rc.probeBaselines(p); err != nil {
		return nil, err
	}
	rc.probes = p
	return p, nil
}

// nsPerCall times n calls of fn.
func nsPerCall(n int, fn func(i int)) float64 {
	s := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(s).Nanoseconds()) / float64(n)
}

// probeBitvec times rank on the two bit-vector representations under
// the wavelet tree, over one random vector of a million bits.
func (rc *runConfig) probeBitvec(p *probes) {
	const bits = 1 << 20
	rng := rand.New(rand.NewSource(rc.seed + 60))
	b := bitvec.NewBuilder(bits)
	for i := 0; i < bits; i++ {
		b.PushBit(rng.Intn(4) == 0)
	}
	plain, rrr := b.Plain(), b.RRR(63)
	pos := make([]int, 1<<16)
	for i := range pos {
		pos[i] = rng.Intn(bits)
	}
	sink := 0
	p.metrics["bitvec.plain_rank_ns"] = nsPerCall(len(pos), func(i int) { sink += plain.Rank1(pos[i]) })
	p.metrics["bitvec.rrr_rank_ns"] = nsPerCall(len(pos), func(i int) { sink += rrr.Rank1(pos[i]) })
	probeSink.Add(int64(sink))
}

// probeTempo times checkpointed random access into timestamp columns
// shaped like the long corpus's.
func (rc *runConfig) probeTempo(p *probes) {
	rng := rand.New(rand.NewSource(rc.seed + 61))
	times := make([][]int64, 100)
	entries := 0
	for k := range times {
		col := make([]int64, rc.sz.LongMeanLen)
		at := rng.Int63n(dayHorizon)
		for i := range col {
			col[i] = at
			at += 1 + rng.Int63n(4)
		}
		times[k] = col
		entries += len(col)
	}
	st := tempo.New(times)
	type at struct{ k, i int }
	pos := make([]at, 1<<15)
	for i := range pos {
		k := rng.Intn(len(times))
		pos[i] = at{k, rng.Intn(len(times[k]))}
	}
	var decodes, sink int64
	p.metrics["tempo.at_ns"] = nsPerCall(len(pos), func(i int) {
		v, d := st.AtCounted(pos[i].k, pos[i].i)
		sink += v
		decodes += int64(d)
	})
	probeSink.Add(sink)
	p.metrics["tempo.decodes_per_at"] = float64(decodes) / float64(len(pos))
	p.metrics["tempo.bits_per_entry"] = float64(st.SizeBits()) / float64(entries)
}

// probeMatcher map-matches the head of the trace pool with the daemon's
// matcher configuration and returns the accepted rows for the probes
// downstream of matching.
func (rc *runConfig) probeMatcher(p *probes, tr *tracer, grid *corpus) (rows [][]uint32, cols [][]int64, err error) {
	m := gps.NewMatcher(grid.graph, mapmatch.Config{})
	traces := grid.traces[:min(len(grid.traces), rc.sz.ProbeTraces)]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ns int64
	points, exact := 0, 0
	for i, t := range traces {
		s := time.Now()
		mt, merr := m.Match(t)
		e := time.Now()
		tr.add(layerGPS, "Matcher.Match", i, -1, s, e)
		ns += e.Sub(s).Nanoseconds()
		points += len(t.Points)
		if merr != nil {
			continue
		}
		rows, cols = append(rows, mt.Edges), append(cols, mt.Times)
		same := len(mt.Edges) == len(grid.walks[i])
		for j := 0; same && j < len(mt.Edges); j++ {
			same = mt.Edges[j] == uint32(grid.walks[i][j])
		}
		if same {
			exact++
		}
	}
	runtime.ReadMemStats(&ms1)
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("matcher accepted none of %d probe traces", len(traces))
	}
	p.metrics["gps.match_us_per_point"] = float64(ns) / 1e3 / float64(points)
	p.metrics["gps.accept_ratio"] = float64(len(rows)) / float64(len(traces))
	p.metrics["gps.exact_path_ratio"] = float64(exact) / float64(len(rows))
	p.metrics["mapmatch.alloc_bytes_per_trace"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(traces))
	return rows, cols, nil
}

// cycled returns n rows drawn round-robin from the matched rows, so
// the append-side probes can run past the probe pool's length.
func cycled(rows [][]uint32, cols [][]int64, n int) ([][]uint32, [][]int64) {
	r, c := make([][]uint32, n), make([][]int64, n)
	for i := range r {
		r[i], c[i] = rows[i%len(rows)], cols[i%len(cols)]
	}
	return r, c
}

// probeRows is how many rows the append-side probes push: enough for
// eight seals and the compactions those trigger.
const probeRows = 8 * sealThreshold

// probeWAL appends batches to a write-ahead log with the daemon's
// default sync policy, then reopens it to time the replay.
func (rc *runConfig) probeWAL(p *probes, tr *tracer, rows [][]uint32, cols [][]int64) error {
	dir := filepath.Join(rc.work, "probe-wal")
	defer removeAll(dir)
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	r, c := cycled(rows, cols, probeRows)
	var ns int64
	batches := 0
	for i := 0; i < len(r); i += ingestBatch {
		s := time.Now()
		err := l.Append(wal.Batch{FirstID: i, Trajs: r[i : i+ingestBatch], Times: c[i : i+ingestBatch]})
		e := time.Now()
		if err != nil {
			l.Close()
			return err
		}
		tr.add(layerWAL, "Log.Append", batches, -1, s, e)
		ns += e.Sub(s).Nanoseconds()
		batches++
	}
	_, size := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	fsyncs := l.Fsyncs()
	s := time.Now()
	l, err = wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	replayMS := float64(time.Since(s).Nanoseconds()) / 1e6
	replayed := 0
	for _, b := range l.Pending() {
		replayed += len(b.Trajs)
	}
	if err := l.Close(); err != nil {
		return err
	}
	if replayed != len(r) {
		return fmt.Errorf("wal replayed %d of %d appended rows", replayed, len(r))
	}
	p.metrics["wal.append_us_per_batch"] = float64(ns) / 1e3 / float64(batches)
	p.metrics["wal.bytes_per_row"] = float64(size) / float64(len(r))
	p.metrics["wal.fsyncs_per_1k_rows"] = float64(fsyncs) * 1000 / float64(len(r))
	p.metrics["wal.replay_ms"] = replayMS
	return nil
}

// probeEngineIngest drives the engine's write side in-process, in the
// daemon's configuration (mapped v3 base, WAL on, road network
// attached): raw traces through IngestGPS, then matched rows through
// Append with a seal every sealThreshold rows and a compaction every
// compactEveryRows, then append-to-notification latency of a standing
// query per row.
func (rc *runConfig) probeEngineIngest(p *probes, tr *tracer, grid *corpus, rows [][]uint32, cols [][]int64) error {
	dir := filepath.Join(rc.work, "probe-engine")
	defer removeAll(dir)
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		return err
	}
	base, err := cinct.BuildTemporal(grid.trajs, grid.times, grid.opts)
	if err != nil {
		return err
	}
	file := filepath.Join(dir, "data", "grid.tcinct")
	if err := saveFile(file, base.SaveV3); err != nil {
		return err
	}
	eng := engine.New(engine.Options{
		Mmap: true, SealThreshold: -1, WAL: engine.WALOptions{Dir: filepath.Join(dir, "wal")},
	})
	defer eng.Shutdown()
	defer eng.CloseAll()
	if err := eng.Load("grid", file); err != nil {
		return err
	}
	eng.AttachRoadnet("grid", grid.graph, mapmatch.Config{})

	traces := grid.traces[:min(len(grid.traces), rc.sz.ProbeTraces)]
	var ns int64
	for i := 0; i+ingestBatch <= len(traces); i += ingestBatch {
		s := time.Now()
		_, err := eng.IngestGPS(bg, "grid", traces[i:i+ingestBatch])
		e := time.Now()
		if err != nil {
			return err
		}
		tr.add(layerEngine, "Engine.IngestGPS", i/ingestBatch, -1, s, e)
		ns += e.Sub(s).Nanoseconds()
	}
	p.metrics["engine.ingest_gps_us_per_trace"] = float64(ns) / 1e3 / float64(len(traces)/ingestBatch*ingestBatch)

	r, c := cycled(rows, cols, probeRows)
	var appendNS int64
	var sealMS, compactMS []time.Duration
	for i := 0; i < len(r); i += ingestBatch {
		s := time.Now()
		_, err := eng.Append(bg, "grid", r[i:i+ingestBatch], c[i:i+ingestBatch])
		appendNS += time.Since(s).Nanoseconds()
		if err != nil {
			return err
		}
		if n := i + ingestBatch; n%sealThreshold == 0 {
			s := time.Now()
			if _, err := eng.Seal(bg, "grid"); err != nil {
				return err
			}
			sealMS = append(sealMS, time.Since(s))
			if n%compactEveryRows == 0 {
				s := time.Now()
				cr, err := eng.Compact(bg, "grid", false)
				if err != nil {
					return err
				}
				if cr.Merged > 0 {
					compactMS = append(compactMS, time.Since(s))
				}
			}
		}
	}
	p.metrics["engine.append_us_per_row"] = float64(appendNS) / 1e3 / float64(len(r))
	p.metrics["engine.seals"] = float64(len(sealMS))
	p.metrics["engine.seal_ms_p50"] = medianDur(sealMS) / 1e6
	p.metrics["engine.compactions"] = float64(len(compactMS))
	p.metrics["engine.compact_ms_p50"] = medianDur(compactMS) / 1e6

	var notify []time.Duration
	for i := 0; i < min(len(rows), rc.sz.ProbeQueries); i++ {
		sub, err := eng.Subscribe("grid", engine.Predicate{Path: rows[i]}, engine.SubscribeOptions{})
		if err != nil {
			return err
		}
		s := time.Now()
		if _, err := eng.Append(bg, "grid", rows[i:i+1], cols[i:i+1]); err != nil {
			return err
		}
		select {
		case <-sub.C():
			notify = append(notify, time.Since(s))
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no notification for appended row %d within 5s", i)
		}
		if err := eng.Unsubscribe("grid", sub.ID()); err != nil {
			return err
		}
	}
	p.metrics["engine.notify_p99_us"] = percentile(sortedCopy(notify), 0.99)
	var buf bytes.Buffer
	if _, err := eng.Metrics().WriteTo(&buf); err != nil {
		return err
	}
	p.extra["engine.notify_dropped"] = value{Value: parseMetrics(buf.Bytes())["cinct_notifications_dropped_total"], Unit: "count"}
	return nil
}

// probeDelta times the same count queries against a writer while the
// rows sit in the uncompressed delta and again after the seal: the
// hot-delta-vs-sealed gap a reader of gps_ingest_mixed sees.
func (rc *runConfig) probeDelta(p *probes, grid *corpus, rows [][]uint32, cols [][]int64) error {
	base, err := cinct.BuildTemporal(grid.trajs, grid.times, grid.opts)
	if err != nil {
		return err
	}
	w, err := cinct.NewTemporalWriterAt(base, cinct.WriterConfig{})
	if err != nil {
		return err
	}
	defer w.Close()
	r, c := cycled(rows, cols, sealThreshold)
	if _, err := w.AppendBatch(r, c); err != nil {
		return err
	}
	paths := querygen.New(rows, 2, 4, rc.seed+62).Draw(rc.sz.ProbeQueries)
	count := func() (float64, error) {
		var firstErr error
		ns := nsPerCall(len(paths), func(i int) {
			res, err := w.Search(bg, cinct.Query{Path: paths[i], Kind: cinct.CountOnly})
			if err == nil {
				_, err = res.Count()
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
		return ns / 1e3, firstErr
	}
	hot, err := count()
	if err != nil {
		return err
	}
	if _, err := w.Seal(); err != nil {
		return err
	}
	sealed, err := count()
	if err != nil {
		return err
	}
	p.metrics["cinct.hot_delta_count_us"] = hot
	p.metrics["cinct.sealed_count_us"] = sealed
	return nil
}

// probeBaselines is the paper-fidelity guard: size and suffix-range
// time of the two served container formats against the in-tree FM-index
// baselines, and size alone for the compressors, on the first
// ProbeTrajs trajectories of the standard corpus (the tier the
// BENCH_PR2…10 files used).
func (rc *runConfig) probeBaselines(p *probes) error {
	ds := trajgen.Singapore2(trajgen.Config{GridW: 26, GridH: 26, NumTrajs: rc.sz.ProbeTrajs, MeanLen: 45, Seed: rc.seed})
	prep, err := experiments.Prepare(ds)
	if err != nil {
		return err
	}
	key := map[string]string{
		fmindex.UFMI.String(): "ufmi", fmindex.ICBWM.String(): "icb_wm", fmindex.ICBHuff.String(): "icb_huff",
		fmindex.FMAP.String(): "fm_ap", fmindex.FMInv.String(): "fm_inv",
		"MEL": "mel", "Re-Pair": "repair", "bwzip": "bwzip", "PRESS": "press",
	}
	pats := prep.SampleQueries(rc.sz.ProbeQueries, 5, rc.seed+63)
	for _, b := range experiments.BuildAll(prep, 63) {
		us := experiments.TimeSearch(b, pats) / 1e3
		if k, ok := key[b.Name]; ok {
			p.metrics["baseline."+k+"_bits_per_symbol"] = b.BitsPerSymbol
			p.metrics["baseline."+k+"_suffix_range_us"] = us
		} else {
			// The paper's own configuration: one core index, no locate.
			p.extra["baseline.cinct_core_bits_per_symbol"] = value{Value: b.BitsPerSymbol, Unit: "bits"}
			p.extra["baseline.cinct_core_suffix_range_us"] = value{Value: us, Unit: "us"}
		}
	}
	for _, row := range experiments.Table4(prep) {
		if k, ok := key[row.Compressor]; ok && row.Ratio > 0 {
			p.metrics["baseline."+k+"_bits_per_symbol"] = 32 / row.Ratio
		}
	}

	c := &corpus{name: "probe", trajs: ds.Trajs, opts: indexOptions(0)}
	ix, err := cinct.Build(c.trajs, c.opts)
	if err != nil {
		return err
	}
	var v1 bytes.Buffer
	if _, err := ix.Save(&v1); err != nil {
		return err
	}
	v1Bytes := v1.Len()
	heap, err := cinct.Load(bufio.NewReader(&v1))
	if err != nil {
		return err
	}
	v3 := filepath.Join(rc.work, "probe.cinct")
	defer os.Remove(v3) //nolint:errcheck // scratch file
	if err := saveFile(v3, func(w io.Writer) (int64, error) { return ix.SaveV3(w) }); err != nil {
		return err
	}
	info, err := os.Stat(v3)
	if err != nil {
		return err
	}
	mapped, err := cinct.OpenMapped(v3)
	if err != nil {
		return err
	}
	paths := querygen.NewFixed(c.trajs, 5, rc.seed+63).Draw(rc.sz.ProbeQueries)
	sink := 0
	symbols := float64(c.symbols())
	p.metrics["baseline.cinct_v1_bits_per_symbol"] = float64(v1Bytes) * 8 / symbols
	p.metrics["baseline.cinct_v3_bits_per_symbol"] = float64(info.Size()) * 8 / symbols
	p.metrics["baseline.cinct_v1_suffix_range_us"] = nsPerCall(len(paths), func(i int) { sink += heap.Count(paths[i]) }) / 1e3
	p.metrics["baseline.cinct_v3_suffix_range_us"] = nsPerCall(len(paths), func(i int) { sink += mapped.Count(paths[i]) }) / 1e3
	probeSink.Add(int64(sink))
	return nil
}
