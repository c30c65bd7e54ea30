// Command cinct builds, inspects and queries CiNCT indexes from the
// command line. Every query, ingest and compact subcommand is a client
// of cinctd's HTTP handlers (a retrieval is one cinct.Query sent to
// /v1/{index}/query) and targets either a local index file or a
// running daemon. With -index the file is loaded into an engine in
// this process and the same handlers answer without a socket, so the
// two modes differ only in where the handlers run:
//
//	cinct build  -in corpus.txt -index corpus.cinct [-times times.txt] [-block 63] [-sample 40] [-shards N]
//	cinct stats  -index corpus.cinct
//	cinct count  -index corpus.cinct -path "17 42 99" [-from 0 -to 999]
//	cinct find   -index corpus.cinct -path "17 42 99" [-limit 10] [-cursor TOKEN] [-from 0 -to 999]
//	cinct find-traj -index corpus.cinct -path "17 42 99" [-limit 10]
//	cinct show   -index corpus.cinct -traj 5
//	cinct subpath -index corpus.cinct -traj 5 -from 2 -to 9
//	cinct verify -in corpus.txt -index corpus.cinct
//	cinct ingest -remote http://localhost:8132 -name corpus -in more.txt [-times more-times.txt] [-seal]
//	cinct ingest -index corpus.cinct -in more.txt   (appends, seals, persists in place)
//	cinct compact -index corpus.cinct [-full=false]   (merge sealed shards, persist in place)
//	cinct compact -remote http://localhost:8132 -name corpus [-full]
//	cinct convert -in old.cinct -out corpus.cinct
//	cinct roadnet-gen -out net.road [-w 8] [-h 8] [-seed 1]
//	cinct gps-simulate -roadnet net.road -out traces.ndjson [-truth paths.txt] [-n 10] [-noise 0.05]
//	cinct gps-ingest -remote http://localhost:8132 -name corpus -in traces.ndjson [-v]
//	cinct subscribe -remote http://localhost:8132 -name corpus -path "17 42" [-from 0 -to 999]
//
// Any query, ingest or compact subcommand accepts -remote URL -name
// INDEX instead of -index FILE to run against a cinctd daemon;
// gps-ingest and subscribe run against a daemon only:
//
//	cinct count -remote http://localhost:8132 -name corpus -path "17 42 99"
//
// Corpus files hold one trajectory per line as space-separated road
// edge IDs (the format cmd/trajgen emits). An index file says itself
// whether it carries timestamps (its shards' timestamp sections); .tcinct is
// only the conventional name of a temporal one. find and count given
// -from or -to restrict hits to that entry-time interval (the strict
// path query), which on a spatial index fails with "index has no
// timestamps".
//
// build with -times indexes the corpus with its timestamp columns (one
// line per trajectory, aligned with -in) and writes a temporal file.
// Every index file this command writes — build, convert, and the
// in-place persists of ingest and compact — is a v3 container holding
// what the index holds, the file cinctd serves, written atomically
// (temp file, fsync, rename): a served file is mapped, so it must be
// replaced by rename, never truncated in place. Older files (pre-v3
// streams, container versions 3 and 4) are read by convert alone, which
// rebuilds the index from the corpus such a file holds; every other
// subcommand, like cinctd, refuses one and names convert. build
// defaults -sample to cinct.DefaultOptions().SampleRate, the rate
// every shard later sealed or compacted onto the file is built with,
// so a file never mixes a CLI default with the library's.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cinct"
	"cinct/internal/atomicfile"
	"cinct/internal/engine"
	"cinct/internal/legacy"
	"cinct/internal/querygen"
	"cinct/internal/trajio"
	"cinct/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = cmdBuild(args)
	case "stats":
		err = cmdStats(args)
	case "count":
		err = cmdCount(args)
	case "find":
		err = cmdFind(args)
	case "find-traj":
		err = cmdFindTraj(args)
	case "show":
		err = cmdShow(args)
	case "subpath":
		err = cmdSubPath(args)
	case "verify":
		err = cmdVerify(args)
	case "ingest":
		err = cmdIngest(args)
	case "compact":
		err = cmdCompact(args)
	case "convert":
		err = cmdConvert(args)
	case "roadnet-gen":
		err = cmdRoadnetGen(args)
	case "gps-simulate":
		err = cmdGPSSimulate(args)
	case "gps-ingest":
		err = cmdGPSIngest(args)
	case "subscribe":
		err = cmdSubscribe(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cinct %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: cinct {build|stats|count|find|find-traj|show|subpath|verify|ingest|compact|convert|roadnet-gen|gps-simulate|gps-ingest|subscribe} [flags]")
	os.Exit(2)
}

// target holds the shared flags selecting the index a subcommand
// talks to: a local file or an index at a daemon.
type target struct {
	index  *string // local index file
	remote *string // daemon base URL
	name   *string // index name at the daemon
}

func addTargetFlags(fs *flag.FlagSet) *target {
	return &target{
		index:  fs.String("index", "", "local index file"),
		remote: fs.String("remote", "", "cinctd base URL (e.g. http://localhost:8132)"),
		name:   fs.String("name", "", "index name at the daemon (with -remote)"),
	}
}

// addIntervalFlags registers -from/-to. The returned function, called
// after Parse, yields the Interval they describe: nil when neither was
// given, a missing bound defaulting to the widest value as in the wire
// form.
func addIntervalFlags(fs *flag.FlagSet) func() *cinct.Interval {
	from := fs.Int64("from", math.MinInt64, "only entry times at or after this (temporal indexes)")
	to := fs.Int64("to", math.MaxInt64, "only entry times at or before this (temporal indexes)")
	return func() *cinct.Interval {
		var iv *cinct.Interval
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "from" || f.Name == "to" {
				iv = &cinct.Interval{From: *from, To: *to}
			}
		})
		return iv
	}
}

// client returns the client every query, ingest and compact subcommand
// runs through, and the index name to give it. -remote dials the
// daemon. -index loads the file into an engine in this process and
// hands the client cinctd's own handlers through inProcess, so both
// modes run the same code from the request on. That engine seals only
// when asked and keeps no write-ahead log.
func (t *target) client() (*server.Client, string, error) {
	switch {
	case *t.remote != "" && *t.index != "":
		return nil, "", fmt.Errorf("-index and -remote are mutually exclusive")
	case *t.remote != "":
		if *t.name == "" {
			return nil, "", fmt.Errorf("-name is required with -remote")
		}
		return server.NewClient(*t.remote, nil), *t.name, nil
	case *t.index != "":
		eng := engine.New(engine.Options{SealThreshold: -1})
		const name = "local"
		if err := eng.Load(name, *t.index); err != nil {
			return nil, "", err
		}
		h := server.New(eng, server.Config{RequestTimeout: -1}).Handler()
		return server.NewClient("http://"+name, &http.Client{Transport: inProcess{h}}), name, nil
	}
	return nil, "", fmt.Errorf("-index (local file) or -remote (daemon URL) is required")
}

// inProcess is an http.RoundTripper that answers each request by
// running a handler in this process and recording its reply: no
// socket, same handlers.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	r := req.Clone(req.Context())
	if r.Body == nil {
		r.Body = http.NoBody
	}
	defer r.Body.Close()
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// search drains one query. CountOnly and bounded queries fit one
// page, which carries the count and the resume cursor; an unbounded
// one drains through the paging iterator and ends with no cursor.
func search(ctx context.Context, c *server.Client, name string, q cinct.Query) (*server.QueryPage, error) {
	if q.Kind == cinct.CountOnly || q.Limit > 0 {
		return c.SearchPage(ctx, name, q)
	}
	page := &server.QueryPage{}
	for h, err := range c.Search(ctx, name, q) {
		if err != nil {
			return nil, err
		}
		page.Hits = append(page.Hits, h)
	}
	page.Count = len(page.Hits)
	return page, nil
}

// indexInfo returns the catalog entry of the named index.
func indexInfo(ctx context.Context, c *server.Client, name string) (engine.Info, error) {
	infos, err := c.Indexes(ctx)
	if err != nil {
		return engine.Info{}, err
	}
	for _, info := range infos {
		if info.Name == name {
			return info, nil
		}
	}
	return engine.Info{}, fmt.Errorf("%w: %q", engine.ErrNotFound, name)
}

func readCorpus(path string) ([][]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trajio.Read(f)
}

// cmdBuild indexes a corpus — with -times, together with its
// timestamp columns (same line-per-trajectory layout; times[k][i] =
// entry time of edge i), into a temporal index.
func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input corpus file")
	timesPath := fs.String("times", "", "timestamps file aligned with -in: build a temporal index")
	out := fs.String("index", "", "output index file")
	block := fs.Int("block", 63, "RRR block size (15, 31 or 63)")
	sample := fs.Int("sample", cinct.DefaultOptions().SampleRate,
		"SA sample rate (0 = count-only index, spatial only); defaults to the library's, which seals and compactions use too")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0),
		"corpus partitions, built in parallel; a query visits them one at a time (1 = monolithic)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -index are required")
	}
	trajs, err := readCorpus(*in)
	if err != nil {
		return err
	}
	opts := cinct.DefaultOptions()
	opts.Block = *block
	opts.SampleRate = *sample
	opts.Shards = *shards
	t0 := time.Now()
	var ix *cinct.Index
	if *timesPath == "" {
		ix, err = cinct.Build(trajs, opts)
	} else {
		ix, err = buildTemporal(trajs, *timesPath, opts)
	}
	if err != nil {
		return err
	}
	buildTime := time.Since(t0)
	n, err := atomicfile.Write(*out, ix.Save)
	if err != nil {
		return err
	}
	s := ix.Stats()
	fmt.Printf("indexed %d trajectories (%d symbols, %d shard(s)) in %v\n",
		s.Trajectories, s.TextLen, s.Shards, buildTime.Round(time.Millisecond))
	fmt.Printf("index: %d bytes on disk (%.2f bits/symbol), %.2f bits/symbol as the paper counts\n",
		n, float64(8*n)/float64(s.TextLen), s.BitsPerSymbol)
	if ix.Temporal() {
		fmt.Printf("timestamps: %.2f bits/entry\n", float64(ix.TimestampBits())/float64(ix.Len()))
	}
	return nil
}

// buildTemporal reads the timestamps file and builds the temporal
// index of trajs.
func buildTemporal(trajs [][]uint32, timesPath string, opts *cinct.Options) (*cinct.Index, error) {
	tf, err := os.Open(timesPath)
	if err != nil {
		return nil, err
	}
	times, err := trajio.ReadTimes(tf)
	tf.Close()
	if err != nil {
		return nil, err
	}
	tix, err := cinct.BuildTemporal(trajs, times, opts)
	if err != nil {
		return nil, err
	}
	return tix.Index, nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	t := addTargetFlags(fs)
	fs.Parse(args)
	c, name, err := t.client()
	if err != nil {
		return err
	}
	info, err := indexInfo(context.Background(), c, name)
	if err != nil {
		return err
	}
	s := info.Stats
	fmt.Printf("shards:           %d\n", s.Shards)
	fmt.Printf("trajectories:     %d\n", s.Trajectories)
	fmt.Printf("distinct edges:   %d\n", s.Edges)
	fmt.Printf("|T|:              %d\n", s.TextLen)
	fmt.Printf("ET-graph edges:   %d (d̄ = %.2f, max out-degree %d)\n",
		s.ETGraphEdges, s.AvgOutDegree, s.MaxLabel)
	fmt.Printf("H0(φ(Tbwt)):      %.2f bits/symbol\n", s.LabelEntropy)
	// The size fields are the file's sections; BitsPerSymbol is the
	// paper's accounting of the wavelet tree, ET-graph and C.
	perSym := func(bits int) float64 { return float64(bits) / float64(s.TextLen) }
	fmt.Printf("wavelet tree:     %.2f bits/symbol\n", perSym(s.WaveletBits))
	fmt.Printf("ET-graph:         %.2f bits/symbol\n", perSym(s.GraphBits))
	fmt.Printf("C array:          %.2f bits/symbol\n", perSym(s.CArrayBits))
	fmt.Printf("locate samples:   %.2f bits/symbol (row marks + packed SA/ISA samples)\n", perSym(s.LocateBits))
	fmt.Printf("corpus tables:    %.2f bits/symbol (symbol map, trajectory tables, core parameters)\n", perSym(s.TableBits))
	if info.Temporal {
		fmt.Printf("timestamps:       %.2f bits/entry\n", perSym(info.TimestampBits))
	}
	fmt.Printf("sections:         %.2f bits/symbol (the file, but for its header, TOC and page padding)\n",
		perSym(s.WaveletBits+s.GraphBits+s.CArrayBits+s.LocateBits+s.TableBits+info.TimestampBits))
	fmt.Printf("paper (WT+ET+C):  %.2f bits/symbol\n", s.BitsPerSymbol)
	return nil
}

func cmdCount(args []string) error {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	t := addTargetFlags(fs)
	interval := addIntervalFlags(fs)
	path := fs.String("path", "", "space-separated edge IDs in travel order")
	fs.Parse(args)
	iv := interval()
	c, name, err := t.client()
	if err != nil {
		return err
	}
	p, err := parsePath(*path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := search(context.Background(), c, name, cinct.Query{Path: p, Interval: iv, Kind: cinct.CountOnly})
	if err != nil {
		return err
	}
	if iv != nil {
		fmt.Printf("%d occurrences in [%d, %d] (%v)\n", res.Count, iv.From, iv.To, time.Since(t0))
		return nil
	}
	fmt.Printf("%d occurrences (%v)\n", res.Count, time.Since(t0))
	return nil
}

func cmdFind(args []string) error {
	fs := flag.NewFlagSet("find", flag.ExitOnError)
	t := addTargetFlags(fs)
	interval := addIntervalFlags(fs)
	path := fs.String("path", "", "space-separated edge IDs in travel order")
	limit := fs.Int("limit", 20, "max matches to report (0 = all)")
	cursor := fs.String("cursor", "", "resume cursor from a previous bounded find")
	fs.Parse(args)
	iv := interval()
	c, name, err := t.client()
	if err != nil {
		return err
	}
	p, err := parsePath(*path)
	if err != nil {
		return err
	}
	res, err := search(context.Background(), c, name, cinct.Query{
		Path: p, Interval: iv, Kind: cinct.Occurrences, Limit: *limit, Cursor: *cursor,
	})
	if err != nil {
		return err
	}
	for _, h := range res.Hits {
		if iv != nil {
			fmt.Printf("trajectory %d @ offset %d, entered t=%d\n", h.Trajectory, h.Offset, h.EnteredAt)
		} else {
			fmt.Printf("trajectory %d @ offset %d\n", h.Trajectory, h.Offset)
		}
	}
	fmt.Printf("%d match(es)\n", len(res.Hits))
	if res.Cursor != "" {
		fmt.Printf("next: -cursor %s\n", res.Cursor)
	}
	return nil
}

// cmdFindTraj lists the distinct trajectories containing a path — the
// Trajectories query kind.
func cmdFindTraj(args []string) error {
	fs := flag.NewFlagSet("find-traj", flag.ExitOnError)
	t := addTargetFlags(fs)
	path := fs.String("path", "", "space-separated edge IDs in travel order")
	limit := fs.Int("limit", 20, "max trajectories to report (0 = all)")
	fs.Parse(args)
	c, name, err := t.client()
	if err != nil {
		return err
	}
	p, err := parsePath(*path)
	if err != nil {
		return err
	}
	res, err := search(context.Background(), c, name, cinct.Query{
		Path: p, Kind: cinct.Trajectories, Limit: *limit,
	})
	if err != nil {
		return err
	}
	for _, h := range res.Hits {
		fmt.Printf("trajectory %d\n", h.Trajectory)
	}
	fmt.Printf("%d trajectorie(s)\n", len(res.Hits))
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	t := addTargetFlags(fs)
	traj := fs.Int("traj", 0, "trajectory ID")
	fs.Parse(args)
	c, name, err := t.client()
	if err != nil {
		return err
	}
	tr, err := c.Trajectory(context.Background(), name, *traj)
	if err != nil {
		return err
	}
	printEdges(tr)
	return nil
}

func cmdSubPath(args []string) error {
	fs := flag.NewFlagSet("subpath", flag.ExitOnError)
	t := addTargetFlags(fs)
	traj := fs.Int("traj", 0, "trajectory ID")
	from := fs.Int("from", 0, "first edge offset (inclusive)")
	to := fs.Int("to", 0, "last edge offset (exclusive)")
	fs.Parse(args)
	c, name, err := t.client()
	if err != nil {
		return err
	}
	sub, err := c.SubPath(context.Background(), name, *traj, *from, *to)
	if err != nil {
		return err
	}
	printEdges(sub)
	return nil
}

// cmdIngest appends trajectories from a corpus file to a live index
// through the NDJSON /v1/{index}/ingest endpoint. -index always seals
// at the end, which persists the file in place: the local engine's
// delta would die with the process.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	t := addTargetFlags(fs)
	in := fs.String("in", "", "corpus file of trajectories to append")
	timesPath := fs.String("times", "", "timestamps file aligned with -in (required for temporal indexes)")
	seal := fs.Bool("seal", false, "compact the delta into a sealed shard after appending (implied in -index mode)")
	batch := fs.Int("batch", 500, "records per append batch")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *batch <= 0 {
		return fmt.Errorf("-batch must be > 0")
	}
	trajs, err := readCorpus(*in)
	if err != nil {
		return err
	}
	var times [][]int64
	if *timesPath != "" {
		tf, err := os.Open(*timesPath)
		if err != nil {
			return err
		}
		times, err = trajio.ReadTimes(tf)
		tf.Close()
		if err != nil {
			return err
		}
		if len(times) != len(trajs) {
			return fmt.Errorf("%d timestamp lines for %d trajectories", len(times), len(trajs))
		}
	}
	c, name, err := t.client()
	if err != nil {
		return err
	}
	ctx := context.Background()
	t0 := time.Now()
	appended := 0
	for lo := 0; lo < len(trajs); lo += *batch {
		hi := min(lo+*batch, len(trajs))
		recs := make([]server.IngestRecord, hi-lo)
		for i := range recs {
			recs[i] = server.IngestRecord{Edges: trajs[lo+i]}
			if times != nil {
				recs[i].Times = times[lo+i]
			}
		}
		resp, err := c.Ingest(ctx, name, recs, false)
		if err != nil {
			return err
		}
		appended += resp.Appended
	}
	fmt.Printf("appended %d trajectories in %v\n", appended, time.Since(t0).Round(time.Millisecond))
	if !*seal && *t.index == "" {
		return nil
	}
	sres, err := c.Seal(ctx, name)
	if err != nil {
		return err
	}
	fmt.Printf("sealed %d trajectories (delta now %d, generation %d)\n",
		sres.Sealed, sres.Delta, sres.Generation)
	if *t.index != "" {
		fmt.Printf("persisted to %s\n", *t.index)
	}
	return nil
}

// cmdCompact merges an index's sealed shards through POST
// /v1/{index}/compact, which persists the result (in place, for
// -index). -full merges all the way down to a single shard instead of
// stopping at the tiered policy's fixpoint.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	t := addTargetFlags(fs)
	full := fs.Bool("full", true, "merge down to a single shard (false = default tiered policy)")
	fs.Parse(args)
	c, name, err := t.client()
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := c.Compact(context.Background(), name, *full)
	if err != nil {
		return err
	}
	if res.Merged == 0 {
		fmt.Printf("already compact: %d shard(s), nothing to merge (%v)\n",
			res.ShardsAfter, time.Since(t0).Round(time.Millisecond))
		return nil
	}
	fmt.Printf("compacted %d shards down to %d (%d trajectories re-compressed, %v)\n",
		res.ShardsBefore, res.ShardsAfter, res.Rows, time.Since(t0).Round(time.Millisecond))
	return nil
}

// cmdVerify cross-checks the index against the original corpus: counts
// of sampled sub-paths versus a naive scan, and full reconstruction of
// sampled trajectories. With -remote it doubles as an end-to-end check
// of a live daemon.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	t := addTargetFlags(fs)
	in := fs.String("in", "", "original corpus file")
	samples := fs.Int("samples", 200, "number of sampled checks")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	trajs, err := readCorpus(*in)
	if err != nil {
		return err
	}
	c, name, err := t.client()
	if err != nil {
		return err
	}
	ctx := context.Background()
	info, err := indexInfo(ctx, c, name)
	if err != nil {
		return err
	}
	if info.Stats.Trajectories != len(trajs) {
		return fmt.Errorf("index holds %d trajectories, corpus has %d",
			info.Stats.Trajectories, len(trajs))
	}
	sampler := querygen.New(trajs, 2, 5, 1)
	for checked := 0; checked < *samples; checked++ {
		path := sampler.Next()
		if path == nil {
			break
		}
		res, err := search(ctx, c, name, cinct.Query{Path: path, Kind: cinct.CountOnly})
		if err != nil {
			return err
		}
		if got, want := res.Count, querygen.NaiveCount(trajs, path); got != want {
			return fmt.Errorf("MISMATCH: Count(%v) = %d, naive scan = %d", path, got, want)
		}
	}
	// Reconstruction spot checks, evenly spread over the ID space.
	recons := *samples/10 + 1
	for k := 0; k < recons; k++ {
		id := k * len(trajs) / recons
		got, err := c.Trajectory(ctx, name, id)
		if err != nil {
			return err
		}
		if len(got) != len(trajs[id]) {
			return fmt.Errorf("MISMATCH: trajectory %d length %d, corpus %d",
				id, len(got), len(trajs[id]))
		}
		for i := range got {
			if got[i] != trajs[id][i] {
				return fmt.Errorf("MISMATCH: trajectory %d differs at %d", id, i)
			}
		}
	}
	fmt.Printf("verified: %d count checks and %d reconstructions OK\n", *samples, recons)
	return nil
}

func printEdges(edges []uint32) {
	for i, e := range edges {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(e)
	}
	fmt.Println()
}

func parsePath(s string) ([]uint32, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty -path")
	}
	out := make([]uint32, len(fields))
	for i, fld := range fields {
		v, err := strconv.ParseUint(fld, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad edge ID %q: %v", fld, err)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

// cmdConvert rewrites an index file as the v3 container every build
// now writes and cinctd serves zero-copy. An older file — the only
// reader of those is here — is decoded to the corpus it holds and
// rebuilt with the options it recorded, spatial or temporal as its
// bytes say; a current file is re-saved.
// Converting in place is safe: the whole input is read before
// atomicfile.Write replaces the output.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input index file (current, or one an older build wrote)")
	out := fs.String("out", "", "output v3 container file")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	ix, err := cinct.Load(f)
	if errors.Is(err, cinct.ErrLegacyFormat) {
		if _, err = f.Seek(0, io.SeekStart); err == nil {
			ix, err = rebuildLegacy(f)
		}
	}
	if err != nil {
		return err
	}
	n, err := atomicfile.Write(*out, ix.Save)
	if err != nil {
		return err
	}
	s := ix.Stats()
	fmt.Printf("converted %s -> %s: %d trajectories, %d shard(s), temporal %v, %d bytes (v3, page-aligned)\n",
		*in, *out, s.Trajectories, s.Shards, ix.Temporal(), n)
	return nil
}

// rebuildLegacy builds the index an old file describes from the
// corpus it holds, with the options it recorded.
func rebuildLegacy(r io.Reader) (*cinct.Index, error) {
	c, err := legacy.Decode(r)
	if err != nil {
		return nil, err
	}
	opts := cinct.Options(c.Options)
	if c.Times == nil {
		return cinct.Build(c.Trajs, &opts)
	}
	tix, err := cinct.BuildTemporal(c.Trajs, c.Times, &opts)
	if err != nil {
		return nil, err
	}
	return tix.Index, nil
}
