package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"cinct"
	"cinct/internal/core"
	"cinct/internal/engine"
	"cinct/internal/etgraph"
	"cinct/internal/trajstr"
	"cinct/internal/wavelet"
	"cinct/internal/wire"
	"cinct/server"
)

// Layer names. The later in-program stage tracing must reuse them.
const (
	layerClient = "client"
	layerServer = "server"
	layerEngine = "engine"
	layerCinct  = "cinct"
	layerCore   = "core"
	layerGPS    = "gps"
	layerWAL    = "wal"
)

// span is one timed call into a layer's public surface. Spans of one
// operation share op_id; parent is the index of the same operation's
// span at the next-outer boundary (-1 at the outermost).
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op_id"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(layer, name string, op, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Op: op, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNS calibrates what recording one span costs: two clock reads
// and an append around an empty call.
func spanCostNS() float64 {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	const n = 1 << 16
	start := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		t.add(layerCore, "empty", i, -1, s, time.Now())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// boundaryCall is one module boundary of the query path: the call that
// carries an operation across it.
type boundaryCall struct {
	layer, name string
	call        func(o op) error
}

// countingTransport counts response body bytes, the wire size of an
// answer as the client sees it.
type countingTransport struct {
	rt    http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func drainEngine(res *engine.Results) (int, error) {
	defer res.Close()
	for _, err := range res.All() {
		if err != nil {
			return 0, err
		}
	}
	return res.Count()
}

func drainIndex(res *cinct.Results) (int, error) {
	for _, err := range res.All() {
		if err != nil {
			return 0, err
		}
	}
	return res.Count()
}

// searcher is the Search surface *cinct.Index and *cinct.TemporalIndex
// share.
type searcher interface {
	Search(ctx context.Context, q cinct.Query) (*cinct.Results, error)
}

// runTraced replays the workload's operation list in-process at each
// module boundary — socket round trip to the real daemon, the HTTP
// handler through httptest, engine.Search, Index.Search on the mapped
// file, core.SuffixRange/LocateSteps — and runs the leaf-layer probes.
// No span is recorded inside the program.
func (rc *runConfig) runTraced(name string) (*result, error) {
	c := rc.corpusFor(name)
	all := workloadOps(name, c, rc.sz, rc.seed)
	digest, err := workloadDigest(name, c, all)
	if err != nil {
		return nil, err
	}
	ops := all[:min(len(all), rc.sz.TraceOps)]
	flush := rc.flushFor(name, c, ops)
	res := &result{
		Workload: name, OpsSHA256: digest, Passes: 1, OpsPerPass: len(ops),
		Attempted: len(ops), Metrics: map[string]value{},
	}
	tr := &tracer{t0: time.Now()}

	s, err := rc.setup(c)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	res.set(perLayer, "cinct.build_s", s.buildS, 0)
	res.set(perLayer, "cinct.save_v3_s", s.saveS, 0)
	if err := rc.containerMetrics(res, s); err != nil {
		return nil, err
	}

	// The four query-path boundaries, outermost first. The socket
	// round trip goes to the real daemon over one connection; the other
	// three run in-process on the same file in the daemon's
	// configuration. The handler and the engine boundary each get an
	// engine of their own, so that one's call cannot fill the other's
	// result cache; the access log goes to a file as the daemon's does.
	ct := &countingTransport{rt: s.d.hc.Transport}
	client := server.NewClient(s.d.base, &http.Client{Transport: ct})
	logf, err := os.Create(filepath.Join(rc.work, "handler.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	newEngine := func() (*engine.Engine, error) {
		eng := engine.New(engine.Options{Mmap: true, CacheEntries: rc.sz.CacheEntries})
		return eng, eng.Load(s.index, s.file)
	}
	engH, err := newEngine()
	if err != nil {
		return nil, err
	}
	defer engH.CloseAll()
	engE, err := newEngine()
	if err != nil {
		return nil, err
	}
	defer engE.CloseAll()
	handler := server.New(engH, server.Config{Logger: log.New(logf, "cinctd: ", log.LstdFlags)}).Handler()
	var ix searcher
	var spatial *cinct.Index
	if c.temporal() {
		t, err := cinct.OpenMappedTemporal(s.file)
		if err != nil {
			return nil, err
		}
		ix, spatial = t, t.Index
	} else {
		if spatial, err = cinct.OpenMapped(s.file); err != nil {
			return nil, err
		}
		ix = spatial
	}
	searchEngine := func(eng *engine.Engine, q cinct.Query) error {
		r, err := eng.Search(bg, s.index, q)
		if err != nil {
			return err
		}
		_, err = drainEngine(r)
		return err
	}
	url := "/v1/" + s.index + "/query"
	var st cinct.QueryStats
	calls := []boundaryCall{
		{layerClient, "POST /v1/{index}/query", func(o op) error {
			_, err := client.SearchPage(bg, s.index, o.q)
			return err
		}},
		{layerServer, "Handler.ServeHTTP", func(o op) error {
			body, err := json.Marshal(server.WireQuery(o.q))
			if err != nil {
				return err
			}
			req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code/100 != 2 {
				return fmt.Errorf("handler answered HTTP %d: %s", rec.Code, rec.Body)
			}
			_, err = wire.ReadPage(rec.Body)
			return err
		}},
		{layerEngine, "Engine.Search", func(o op) error { return searchEngine(engE, o.q) }},
		{layerCinct, "Index.Search", func(o op) error {
			r, err := ix.Search(bg, o.q)
			if err != nil {
				return err
			}
			if _, err := drainIndex(r); err != nil {
				return err
			}
			qs := r.Stats()
			st.LFSteps += qs.LFSteps
			st.DecodeSteps += qs.DecodeSteps
			st.ShardsProbed += qs.ShardsProbed
			st.SummaryPruned += qs.SummaryPruned
			st.DeltaRows += qs.DeltaRows
			st.HitsEmitted += qs.HitsEmitted
			return nil
		}},
	}
	const (
		bClient = iota
		bServer
		bEngine
		bCinct
	)

	// Warm-up pass, then the flush where the workload has one: the
	// same treatment the timed run gives the daemon, applied to every
	// cache, so an operation is a hit or a miss at all boundaries alike.
	for i, o := range ops {
		for _, b := range calls {
			if err := b.call(o); err != nil {
				return nil, fmt.Errorf("%s warm-up op %d: %w", b.name, i, err)
			}
		}
	}
	for _, o := range flush {
		if _, err := client.SearchPage(bg, s.index, o.q); err != nil {
			return nil, err
		}
		if err := searchEngine(engH, o.q); err != nil {
			return nil, err
		}
		if err := searchEngine(engE, o.q); err != nil {
			return nil, err
		}
	}
	before, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	bytes0 := ct.bytes.Load()
	st = cinct.QueryStats{}

	// The recorded pass. An operation crosses all four boundaries back
	// to back, so the host's speed, which drifts by ±15% over tens of
	// seconds on this sandbox, is the same for the spans that are
	// subtracted from each other.
	dur := make([][]time.Duration, len(calls))
	for k := range dur {
		dur[k] = make([]time.Duration, len(ops))
	}
	// hit[i]: the engine answered operation i from its cache, read
	// from the engine's own counters between spans.
	hit := make([]bool, len(ops))
	cinctSpan := make([]int, len(ops))
	var allocBytes uint64
	var ms0, ms1 runtime.MemStats
	for i, o := range ops {
		parent := -1
		for k, b := range calls {
			h0, _, _ := engE.CacheStats()
			if k == bCinct {
				runtime.ReadMemStats(&ms0)
			}
			s := time.Now()
			err := b.call(o)
			e := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s op %d: %w", b.name, i, err)
			}
			if k == bCinct {
				runtime.ReadMemStats(&ms1)
				allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			}
			if h1, _, _ := engE.CacheStats(); k == bEngine {
				hit[i] = h1 > h0
			}
			dur[k][i] = e.Sub(s)
			parent = tr.add(b.layer, b.name, i, parent, s, e)
		}
		cinctSpan[i] = parent
	}
	respBytes := ct.bytes.Load() - bytes0
	after, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	hits, misses := delta("cinct_cache_hits_total"), delta("cinct_cache_misses_total")
	n := float64(len(ops))
	res.set(perLayer, "engine.cache_hit_ratio", hits/max(hits+misses, 1), 0)
	res.set(perLayer, "engine.cache_entries", after["cinct_cache_entries"], 0)
	res.set(perLayer, "server.resp_bytes_per_op", float64(respBytes)/n, 0)
	res.extra("engine.pool_wait_us_per_op", "us", delta("cinct_pool_wait_seconds_sum")*1e6/n)
	var httpErrors float64
	for series, v := range after {
		var code int
		if _, err := fmt.Sscanf(series, `cinct_http_requests_total{code="%d"}`, &code); err == nil && code/100 != 2 {
			httpErrors += v - before[series]
		}
	}
	res.extra("server.errors_total", "count", httpErrors)
	byKind := map[string][]time.Duration{}
	for i, o := range ops {
		byKind[o.kindName()] = append(byKind[o.kindName()], dur[bClient][i])
	}
	for k, d := range byKind {
		sorted := sortedCopy(d)
		res.extra("client."+k+"_p50_us", "us", percentile(sorted, 0.50))
		res.extra("client."+k+"_p99_us", "us", percentile(sorted, 0.99))
	}
	res.extra("client.resp_bytes_per_op", "bytes", float64(respBytes)/n)

	// Every occurrence of a find's path is located, whatever the limit
	// or the interval then keeps: the spatial count is the number of
	// candidates examined.
	var located int64
	for _, o := range ops {
		if o.q.Kind == cinct.Occurrences {
			located += int64(spatial.Count(o.q.Path))
		}
	}
	// A layer's self time: the median over operations of its span minus
	// the same operation's span one boundary further in. A cache hit
	// never reaches the library, so the engine's time stands whole.
	selfUS := func(outer int, inner func(i int) time.Duration) float64 {
		d := make([]time.Duration, len(ops))
		for i := range d {
			d[i] = dur[outer][i] - inner(i)
		}
		return medianDur(d) / 1e3
	}
	res.set(perLayer, "server.transport_us_per_op", selfUS(bClient, func(i int) time.Duration { return dur[bServer][i] }), 0)
	res.set(perLayer, "server.self_us_per_op", selfUS(bServer, func(i int) time.Duration { return dur[bEngine][i] }), 0)
	res.set(perLayer, "engine.self_us_per_op", selfUS(bEngine, func(i int) time.Duration {
		if hit[i] {
			return 0
		}
		return dur[bCinct][i]
	}), 0)
	res.set(perLayer, "cinct.search_us_per_op", medianDur(dur[bCinct])/1e3, 0)
	res.set(perLayer, "cinct.lf_steps_per_op", float64(st.LFSteps)/n, 0)
	res.set(perLayer, "cinct.decode_steps_per_op", float64(st.DecodeSteps)/n, 0)
	res.set(perLayer, "cinct.shards_probed_per_op", float64(st.ShardsProbed)/n, 0)
	res.set(perLayer, "cinct.summary_pruned_per_op", float64(st.SummaryPruned)/n, 0)
	res.set(perLayer, "cinct.delta_rows_per_op", float64(st.DeltaRows)/n, 0)
	res.set(perLayer, "cinct.candidates_per_hit", float64(located)/float64(max(st.HitsEmitted, 1)), 0)
	res.set(perLayer, "cinct.alloc_bytes_per_op", float64(allocBytes)/n, 0)
	res.extra("client.lat_p50_us", "us", medianDur(dur[bClient])/1e3)
	res.extra("server.handler_p50_us", "us", medianDur(dur[bServer])/1e3)
	res.extra("engine.search_p50_us", "us", medianDur(dur[bEngine])/1e3)

	if err := rc.coreBoundary(res, tr, c, ops, cinctSpan); err != nil {
		return nil, err
	}
	pr, err := rc.leafProbes(tr)
	if err != nil {
		return nil, err
	}
	for name, v := range pr.metrics {
		res.set(perLayer, name, v, 0)
	}
	for name, v := range pr.extra {
		res.Extra[name] = v
	}
	if rc.traceOut != "" {
		if err := tr.write(rc.traceOut); err != nil {
			return nil, err
		}
		res.extra("trace.spans", "count", float64(len(tr.spans)))
	}
	return res, nil
}

// containerMetrics sizes and opens the served file against the v1
// stream format: what the v3 container costs in bytes and buys in open
// time.
func (rc *runConfig) containerMetrics(res *result, s *served) error {
	v1 := filepath.Join(rc.work, "v1.idx")
	if err := saveFile(v1, func(w io.Writer) (int64, error) {
		if s.temporal != nil {
			return s.temporal.Save(w)
		}
		return s.spatial.Save(w)
	}); err != nil {
		return err
	}
	defer os.Remove(v1) //nolint:errcheck // scratch file
	v1Info, err := os.Stat(v1)
	if err != nil {
		return err
	}
	v3Info, err := os.Stat(s.file)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if s.temporal != nil {
		_, err = cinct.OpenMappedTemporal(s.file)
	} else {
		_, err = cinct.OpenMapped(s.file)
	}
	if err != nil {
		return err
	}
	openMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	f, err := os.Open(v1)
	if err != nil {
		return err
	}
	defer f.Close()
	t1 := time.Now()
	if s.temporal != nil {
		_, err = cinct.LoadTemporal(bufio.NewReader(f))
	} else {
		_, err = cinct.Load(bufio.NewReader(f))
	}
	if err != nil {
		return err
	}
	res.set(perLayer, "cinct.load_heap_ms", float64(time.Since(t1).Nanoseconds())/1e6, 0)
	res.set(perLayer, "cinct.open_mapped_ms", openMS, 0)
	res.set(perLayer, "cinct.v1_bytes", float64(v1Info.Size()), 0)
	res.set(perLayer, "cinct.v3_bytes", float64(v3Info.Size()), 0)
	res.set(perLayer, "cinct.v3_over_v1", float64(v3Info.Size())/float64(v1Info.Size()), 0)
	return nil
}

// coreBoundary times the innermost boundary on a core.Index built over
// the corpus's first quarter — one shard's worth of the served index,
// with the served options: the suffix range of every operation's path,
// a bounded number of locates inside it, plus extraction and the
// wavelet tree's access+rank underneath the LF step.
func (rc *runConfig) coreBoundary(res *result, tr *tracer, c *corpus, ops []op, outer []int) error {
	const locatesPerOp = 32
	tc, err := trajstr.New(c.trajs[:max(len(c.trajs)/4, 1)])
	if err != nil {
		return err
	}
	ix := core.Build(tc.Text, tc.Sigma, core.Options{
		Spec: wavelet.RRRSpec(c.opts.Block), Strategy: etgraph.BigramSorted, SASample: c.opts.SampleRate,
	})
	var rangeDur []time.Duration
	var locNS, lfSteps, locates int64
	for i, o := range ops {
		pat, ok := tc.ReversedPattern(o.q.Path)
		if !ok {
			continue
		}
		s := time.Now()
		sp, ep, found := ix.SuffixRange(pat)
		e := time.Now()
		rangeDur = append(rangeDur, e.Sub(s))
		id := tr.add(layerCore, "core.SuffixRange", i, outer[i], s, e)
		if !found || o.q.Kind != cinct.Occurrences {
			continue
		}
		step := max((ep-sp)/locatesPerOp, 1)
		s = time.Now()
		for j := sp; j < ep; j += step {
			_, lf := ix.LocateSteps(j)
			lfSteps += lf
			locates++
		}
		e = time.Now()
		locNS += e.Sub(s).Nanoseconds()
		tr.add(layerCore, "core.LocateSteps", i, id, s, e)
	}
	if locates == 0 {
		// A count-only list still gets the locate numbers: rows spread
		// over the whole suffix array.
		s := time.Now()
		for k := 0; k < rc.sz.ProbeQueries; k++ {
			_, lf := ix.LocateSteps(int64(k) * int64(ix.Len()) / int64(rc.sz.ProbeQueries))
			lfSteps += lf
			locates++
		}
		locNS = time.Since(s).Nanoseconds()
	}
	n := min(ix.Len()-1, 200000)
	s := time.Now()
	ix.Extract(0, n)
	extractNS := float64(time.Since(s).Nanoseconds()) / float64(n)

	hwt := ix.Labeled()
	rng := rand.New(rand.NewSource(rc.seed + 50))
	pos := make([]int, 1<<16)
	for i := range pos {
		pos[i] = rng.Intn(hwt.Len())
	}
	s = time.Now()
	var sink int
	for _, p := range pos {
		_, r := hwt.AccessRank(p)
		sink += r
	}
	hwtNS := float64(time.Since(s).Nanoseconds()) / float64(len(pos))
	probeSink.Add(int64(sink))

	res.set(perLayer, "core.suffix_range_us_per_op", medianDur(rangeDur)/1e3, 0)
	res.set(perLayer, "core.locate_us_per_occ", float64(locNS)/1e3/float64(locates), 0)
	res.set(perLayer, "core.lf_steps_per_locate", float64(lfSteps)/float64(locates), 0)
	res.set(perLayer, "core.lf_step_ns", float64(locNS)/float64(max(lfSteps, 1)), 0)
	res.set(perLayer, "core.extract_ns_per_symbol", extractNS, 0)
	res.set(perLayer, "core.bits_per_symbol", ix.BitsPerSymbol(true), 0)
	res.set(perLayer, "wavelet.hwt_access_rank_ns", hwtNS, 0)
	return nil
}

// probeSink keeps probe loops from being optimised away.
var probeSink atomic.Int64
