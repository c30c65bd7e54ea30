package main

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"cinct"
	"cinct/internal/gps"
	"cinct/internal/mapmatch"
)

// ackedRow is one trace the daemon acknowledged as appended.
type ackedRow struct {
	trace int // index into the corpus's trace pool
	id    int // global trajectory ID the daemon assigned
}

// readerSample is one retained answer of the concurrent reader.
type readerSample struct {
	op  int
	got answer
}

// runIngest measures gps_ingest_mixed: one connection posts the GPS
// trace pool in batches (cycling through it until the time is up) and
// compacts after every compactEveryRows accepted rows, the other
// replays the reader list until the writer stops. State grows, so this
// is one pass. Afterwards the daemon is killed with SIGKILL and
// restarted on the same directories: every acknowledged row must still
// be there.
func (rc *runConfig) runIngest() (*result, error) {
	c := rc.corpusFor(wGPSIngestMixed)
	ops := workloadOps(wGPSIngestMixed, c, rc.sz, rc.seed)
	digest, err := workloadDigest(wGPSIngestMixed, c, ops)
	if err != nil {
		return nil, err
	}
	s, setupS, err := rc.setupRepeated(c)
	if err != nil {
		return nil, err
	}
	defer func() { s.d.stop() }()

	// Warm the reader's connection and the mapping; nothing is
	// ingested before the clock starts.
	warm := ops[:min(len(ops), 200)]
	if _, err := runPass(s.d, s.index, warm, nil); err != nil {
		return nil, err
	}

	baseSymbols := c.symbols()
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var (
		writerDone atomic.Bool
		readerEnd  = make(chan struct{})
		readLat    = map[string][]time.Duration{}
		readFailed int
		readOps    int
		samples    []readerSample
	)
	sampled := map[int]bool{}
	for _, i := range sampleIndexes(len(ops), rc.sz.SampleMin, rc.seed) {
		sampled[i] = true
	}
	t0 := time.Now()
	go func() {
		defer close(readerEnd)
		for n := 0; !writerDone.Load(); n++ {
			i := n % len(ops)
			st := time.Now()
			page, err := s.d.client.SearchPage(bg, s.index, ops[i].q)
			readOps++
			if err != nil {
				readFailed++
				continue
			}
			k := ops[i].kindName()
			readLat[k] = append(readLat[k], time.Since(st))
			// Each sampled operation is kept the first time round: the
			// bounds it is checked against hold at any moment.
			if sampled[i] && n < len(ops) {
				samples = append(samples, readerSample{op: i, got: pageAnswer(page)})
			}
		}
	}()

	var (
		acks               []time.Duration
		acked              []ackedRow
		points, symbols    int
		rejected           int
		writeFailed        int
		sinceCompact       int
		compactions        int
		batches, poolTrips int
	)
	deadline := t0.Add(time.Duration(rc.seconds * float64(time.Second)))
	for at := 0; time.Now().Before(deadline); at += ingestBatch {
		if at >= len(c.traces) {
			at = 0
			poolTrips++
			if rc.maxPasses > 0 && poolTrips >= rc.maxPasses {
				break
			}
		}
		batch := c.traces[at:min(at+ingestBatch, len(c.traces))]
		st := time.Now()
		resp, err := s.d.client.IngestGPS(bg, s.index, batch)
		batches++
		if err != nil {
			writeFailed++
			continue
		}
		acks = append(acks, time.Since(st))
		for k, r := range resp.Results {
			if !r.Accepted {
				rejected++
				continue
			}
			acked = append(acked, ackedRow{trace: at + k, id: r.ID})
			points += len(batch[k].Points)
			symbols += r.Edges + 1
			sinceCompact++
		}
		if sinceCompact >= compactEveryRows {
			sinceCompact = 0
			cr, err := s.d.client.Compact(bg, s.index, false)
			if err != nil {
				writeFailed++
			} else if cr.Merged > 0 {
				compactions++
			}
		}
	}
	writerWall := time.Since(t0)
	writerDone.Store(true)
	<-readerEnd
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := s.d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	// What is served is sized at rest: once any background seal has
	// finished persisting and a full compaction (untimed) has merged
	// the sealed shards, so the number does not depend on where in the
	// seal cycle the clock happened to stop.
	if err := waitPersisted(s.dir); err != nil {
		return nil, err
	}
	if _, err := s.d.client.Compact(bg, s.index, true); err != nil {
		return nil, err
	}
	fileBytes, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	walBytes, err := dirBytes(s.walDir)
	if err != nil {
		return nil, err
	}
	scraped, err := s.d.scrape()
	if err != nil {
		return nil, err
	}

	// The crash: no graceful shutdown, then a restart on the same
	// data and WAL directories.
	s.d.kill()
	if err := s.start(rc); err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	lost, err := rc.unrecovered(s, c, acked)
	if err != nil {
		return nil, err
	}
	wrong, err := rc.checkReader(s, c, ops, samples)
	if err != nil {
		return nil, err
	}

	res := &result{
		Workload: wGPSIngestMixed, OpsSHA256: digest, Passes: 1, OpsPerPass: readOps,
		Attempted: readOps + batches,
		Failed:    readFailed + writeFailed + lost + wrong,
		Metrics:   map[string]value{},
	}
	var all []time.Duration
	for k, l := range readLat {
		all = append(all, l...)
		sorted := sortedCopy(l)
		res.extra("client."+k+"_p50_us", "us", percentile(sorted, 0.50))
		res.extra("client."+k+"_p99_us", "us", percentile(sorted, 0.99))
	}
	sorted := sortedCopy(all)
	ackSorted := sortedCopy(acks)
	res.set(endToEnd, "setup_s", setupS, 0)
	res.set(endToEnd, "ops_per_s", float64(points)/writerWall.Seconds(), 0)
	res.set(endToEnd, "lat_p50_us", percentile(sorted, 0.50), 0)
	res.set(endToEnd, "lat_p99_us", percentile(sorted, 0.99), 0)
	res.set(endToEnd, "cpu_us_per_op", (cpu1-cpu0)*1e6/float64(max(points, 1)), 0)
	res.set(endToEnd, "peak_rss_mb", rss, 0)
	res.set(endToEnd, "served_bits_per_symbol", float64(fileBytes+walBytes)*8/float64(baseSymbols+symbols), 0)
	res.extra("ingest_points_per_s", "1/s", float64(points)/writerWall.Seconds())
	res.extra("ingest_ack_p50_ms", "ms", percentile(ackSorted, 0.50)/1e3)
	res.extra("client.ingest_ack_p99_ms", "ms", percentile(ackSorted, 0.99)/1e3)
	res.extra("client.read_ops_per_s", "1/s", float64(readOps-readFailed)/writerWall.Seconds())
	res.extra("read_ops", "count", float64(readOps))
	res.extra("ingest_batches", "count", float64(batches))
	res.extra("rows_accepted", "count", float64(len(acked)))
	res.extra("rows_rejected", "count", float64(rejected))
	res.extra("rows_unrecovered", "count", float64(lost))
	res.extra("compactions", "count", float64(compactions))
	res.extra("wal_bytes", "bytes", float64(walBytes))
	res.extra("daemon.gps_match_share", "ratio", scraped["cinct_gps_match_seconds_sum"]/writerWall.Seconds())
	return res, nil
}

// waitPersisted waits for an in-flight background seal to finish
// renaming its temporary file, so the served size is read at rest.
func waitPersisted(dir string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if err != nil {
			return err
		}
		if len(tmps) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("seal still persisting after 5s: %v", tmps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// unrecovered counts acknowledged rows the restarted daemon cannot
// answer for. The catalog must hold base + acknowledged trajectories,
// and a seed-fixed sample of the rows is looked up by content: the
// trace is matched here with the daemon's own matcher configuration
// and the matched path must be found at the acknowledged ID.
func (rc *runConfig) unrecovered(s *served, c *corpus, acked []ackedRow) (int, error) {
	infos, err := s.d.client.Indexes(bg)
	if err != nil {
		return 0, err
	}
	if len(infos) != 1 {
		return 0, fmt.Errorf("restarted daemon serves %d indexes, want 1", len(infos))
	}
	lost := 0
	if want := len(c.trajs) + len(acked); infos[0].Stats.Trajectories < want {
		lost = want - infos[0].Stats.Trajectories
		fmt.Fprintf(rc.out, "# LOST %d acknowledged rows: catalog holds %d trajectories, want %d\n",
			lost, infos[0].Stats.Trajectories, want)
	}
	if len(acked) == 0 {
		return lost, nil
	}
	m := gps.NewMatcher(c.graph, mapmatch.Config{})
	for _, k := range sampleIndexes(len(acked), rc.sz.SampleMin, rc.seed+1) {
		row := acked[k]
		mt, err := m.Match(c.traces[row.trace])
		if err != nil {
			return 0, fmt.Errorf("daemon accepted trace %d but the same matcher rejects it here: %w", row.trace, err)
		}
		page, err := s.d.client.SearchPage(bg, s.index, cinct.Query{Path: mt.Edges, Kind: cinct.Occurrences})
		if err != nil {
			return 0, err
		}
		found := false
		for _, h := range page.Hits {
			found = found || (h.Trajectory == row.id && h.Offset == 0)
		}
		if !found {
			lost++
			fmt.Fprintf(rc.out, "# LOST acknowledged row %d (trace %d) after restart\n", row.id, row.trace)
		}
	}
	return lost, nil
}

// checkReader compares the reader's retained answers with what can be
// known without replaying the ingest: ingested rows take IDs past the
// base, so a page's leading hits are exactly the base corpus's, and a
// count lies between the base count and the final count the restarted
// daemon reports.
func (rc *runConfig) checkReader(s *served, c *corpus, ops []op, samples []readerSample) (int, error) {
	wrong := 0
	for _, rs := range samples {
		q := ops[rs.op].q
		base := bruteForce(c, q)
		final, err := s.d.client.SearchPage(bg, s.index, q)
		if err != nil {
			return 0, err
		}
		diff := ""
		switch {
		case rs.got.count < base.count || rs.got.count > final.Count:
			diff = fmt.Sprintf("count %d outside [base %d, final %d]", rs.got.count, base.count, final.Count)
		case q.Kind == cinct.Occurrences:
			for i, h := range rs.got.hits {
				if i < len(base.hits) && h != base.hits[i] {
					diff = fmt.Sprintf("hit %d is %+v, base corpus has %+v", i, h, base.hits[i])
				} else if i >= len(base.hits) && h.Trajectory < len(c.trajs) {
					diff = fmt.Sprintf("hit %d %+v is a base row the oracle does not have", i, h)
				}
			}
		}
		if diff != "" {
			wrong++
			fmt.Fprintf(rc.out, "# WRONG %s op %d: %s\n", wGPSIngestMixed, rs.op, diff)
		}
	}
	return wrong, nil
}
