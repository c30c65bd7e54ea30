// Command cinct builds, inspects and queries CiNCT indexes from the
// command line. Every retrieval subcommand is a cinct.Query executed
// by Search — locally through internal/engine, or remotely through the
// daemon's streaming /v1/{index}/query endpoint — and can target
// either a local index file or a running daemon:
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
// Any query subcommand accepts -remote URL -name INDEX instead of
// -index FILE to run against a cinctd daemon:
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

// searchResult is one drained Search: the hits (nil for CountOnly),
// the summary count (full occurrence count for CountOnly, hit count
// otherwise), and the resume cursor ("" when the stream is
// exhausted).
type searchResult struct {
	hits   []cinct.Hit
	count  int
	cursor string
}

// querier is the transport-independent query surface the subcommands
// run against: a local engine over an index file, or a server.Client
// speaking to a daemon's streaming query endpoint. Both satisfy it
// with identical semantics — that equivalence is what server's
// differential tests pin down. Every retrieval operation is one
// Search call with a cinct.Query descriptor.
type querier interface {
	Info(ctx context.Context) (engine.Info, error)
	Search(ctx context.Context, q cinct.Query) (searchResult, error)
	Trajectory(ctx context.Context, id int) ([]uint32, error)
	SubPath(ctx context.Context, id, from, to int) ([]uint32, error)
}

// target holds the shared flags selecting what a query subcommand
// talks to.
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

func (t *target) open() (querier, error) {
	switch {
	case *t.remote != "" && *t.index != "":
		return nil, fmt.Errorf("-index and -remote are mutually exclusive")
	case *t.remote != "":
		if *t.name == "" {
			return nil, fmt.Errorf("-name is required with -remote")
		}
		return &remoteQuerier{c: server.NewClient(*t.remote, nil), name: *t.name}, nil
	case *t.index != "":
		eng := engine.New(engine.Options{})
		const name = "local"
		if err := eng.Load(name, *t.index); err != nil {
			return nil, err
		}
		return &localQuerier{eng: eng, name: name}, nil
	}
	return nil, fmt.Errorf("-index (local file) or -remote (daemon URL) is required")
}

// localQuerier serves queries from an engine in this process.
type localQuerier struct {
	eng  *engine.Engine
	name string
}

func (q *localQuerier) Info(ctx context.Context) (engine.Info, error) {
	return q.eng.Info(q.name)
}
func (q *localQuerier) Search(ctx context.Context, query cinct.Query) (searchResult, error) {
	r, err := q.eng.Search(ctx, q.name, query)
	if err != nil {
		return searchResult{}, err
	}
	defer r.Close()
	if query.Kind == cinct.CountOnly {
		n, cerr := r.Count()
		return searchResult{count: n}, cerr
	}
	var hits []cinct.Hit
	for h, herr := range r.All() {
		if herr != nil {
			return searchResult{}, herr
		}
		hits = append(hits, h)
	}
	return searchResult{hits: hits, count: len(hits), cursor: r.Cursor()}, nil
}
func (q *localQuerier) Trajectory(ctx context.Context, id int) ([]uint32, error) {
	return q.eng.Trajectory(ctx, q.name, id)
}
func (q *localQuerier) SubPath(ctx context.Context, id, from, to int) ([]uint32, error) {
	return q.eng.SubPath(ctx, q.name, id, from, to)
}

// remoteQuerier serves queries from a cinctd daemon.
type remoteQuerier struct {
	c    *server.Client
	name string
}

func (q *remoteQuerier) Info(ctx context.Context) (engine.Info, error) {
	infos, err := q.c.Indexes(ctx)
	if err != nil {
		return engine.Info{}, err
	}
	for _, info := range infos {
		if info.Name == q.name {
			return info, nil
		}
	}
	return engine.Info{}, fmt.Errorf("%w: %q", engine.ErrNotFound, q.name)
}
func (q *remoteQuerier) Search(ctx context.Context, query cinct.Query) (searchResult, error) {
	// CountOnly and bounded queries fit one page, which carries the
	// resume cursor; unbounded ones drain via the transparently paging
	// iterator.
	if query.Kind == cinct.CountOnly || query.Limit > 0 {
		page, err := q.c.SearchPage(ctx, q.name, query)
		if err != nil {
			return searchResult{}, err
		}
		return searchResult{hits: page.Hits, count: page.Count, cursor: page.Cursor}, nil
	}
	var hits []cinct.Hit
	for h, err := range q.c.Search(ctx, q.name, query) {
		if err != nil {
			return searchResult{}, err
		}
		hits = append(hits, h)
	}
	return searchResult{hits: hits, count: len(hits)}, nil
}
func (q *remoteQuerier) Trajectory(ctx context.Context, id int) ([]uint32, error) {
	return q.c.Trajectory(ctx, q.name, id)
}
func (q *remoteQuerier) SubPath(ctx context.Context, id, from, to int) ([]uint32, error) {
	return q.c.SubPath(ctx, q.name, id, from, to)
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
		"corpus partitions built and queried in parallel (1 = monolithic)")
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
	q, err := t.open()
	if err != nil {
		return err
	}
	info, err := q.Info(context.Background())
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
	q, err := t.open()
	if err != nil {
		return err
	}
	p, err := parsePath(*path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := q.Search(context.Background(), cinct.Query{Path: p, Interval: iv, Kind: cinct.CountOnly})
	if err != nil {
		return err
	}
	if iv != nil {
		fmt.Printf("%d occurrences in [%d, %d] (%v)\n", res.count, iv.From, iv.To, time.Since(t0))
		return nil
	}
	fmt.Printf("%d occurrences (%v)\n", res.count, time.Since(t0))
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
	q, err := t.open()
	if err != nil {
		return err
	}
	p, err := parsePath(*path)
	if err != nil {
		return err
	}
	res, err := q.Search(context.Background(), cinct.Query{
		Path: p, Interval: iv, Kind: cinct.Occurrences, Limit: *limit, Cursor: *cursor,
	})
	if err != nil {
		return err
	}
	for _, h := range res.hits {
		if iv != nil {
			fmt.Printf("trajectory %d @ offset %d, entered t=%d\n", h.Trajectory, h.Offset, h.EnteredAt)
		} else {
			fmt.Printf("trajectory %d @ offset %d\n", h.Trajectory, h.Offset)
		}
	}
	fmt.Printf("%d match(es)\n", len(res.hits))
	if res.cursor != "" {
		fmt.Printf("next: -cursor %s\n", res.cursor)
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
	q, err := t.open()
	if err != nil {
		return err
	}
	p, err := parsePath(*path)
	if err != nil {
		return err
	}
	res, err := q.Search(context.Background(), cinct.Query{
		Path: p, Kind: cinct.Trajectories, Limit: *limit,
	})
	if err != nil {
		return err
	}
	for _, h := range res.hits {
		fmt.Printf("trajectory %d\n", h.Trajectory)
	}
	fmt.Printf("%d trajectorie(s)\n", len(res.hits))
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	t := addTargetFlags(fs)
	traj := fs.Int("traj", 0, "trajectory ID")
	fs.Parse(args)
	q, err := t.open()
	if err != nil {
		return err
	}
	tr, err := q.Trajectory(context.Background(), *traj)
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
	q, err := t.open()
	if err != nil {
		return err
	}
	sub, err := q.SubPath(context.Background(), *traj, *from, *to)
	if err != nil {
		return err
	}
	printEdges(sub)
	return nil
}

// cmdIngest appends trajectories from a corpus file to a live index —
// remotely through the daemon's NDJSON /v1/{index}/ingest endpoint,
// or locally by loading the index file, appending, sealing, and
// letting the engine persist the sealed result back to the same file
// (local mode always seals: an unsealed delta would die with the
// process).
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
	ctx := context.Background()
	t0 := time.Now()

	switch {
	case *t.remote != "" && *t.index != "":
		return fmt.Errorf("-index and -remote are mutually exclusive")
	case *t.remote != "":
		if *t.name == "" {
			return fmt.Errorf("-name is required with -remote")
		}
		c := server.NewClient(*t.remote, nil)
		appended := 0
		for lo := 0; lo < len(trajs); lo += *batch {
			hi := lo + *batch
			if hi > len(trajs) {
				hi = len(trajs)
			}
			recs := make([]server.IngestRecord, hi-lo)
			for i := range recs {
				recs[i] = server.IngestRecord{Edges: trajs[lo+i]}
				if times != nil {
					recs[i].Times = times[lo+i]
				}
			}
			resp, err := c.Ingest(ctx, *t.name, recs, false)
			if err != nil {
				return err
			}
			appended += resp.Appended
		}
		fmt.Printf("appended %d trajectories in %v\n", appended, time.Since(t0).Round(time.Millisecond))
		if *seal {
			sres, err := c.Seal(ctx, *t.name)
			if err != nil {
				return err
			}
			fmt.Printf("sealed %d trajectories (delta now %d, generation %d)\n",
				sres.Sealed, sres.Delta, sres.Generation)
		}
		return nil
	case *t.index != "":
		eng := engine.New(engine.Options{SealThreshold: -1})
		const name = "local"
		if err := eng.Load(name, *t.index); err != nil {
			return err
		}
		appended := 0
		for lo := 0; lo < len(trajs); lo += *batch {
			hi := lo + *batch
			if hi > len(trajs) {
				hi = len(trajs)
			}
			var bt [][]int64
			if times != nil {
				bt = times[lo:hi]
			}
			res, err := eng.Append(ctx, name, trajs[lo:hi], bt)
			if err != nil {
				return err
			}
			appended += res.Appended
		}
		sres, err := eng.Seal(ctx, name)
		if err != nil {
			return err
		}
		fmt.Printf("appended %d trajectories, sealed %d, persisted to %s (%v)\n",
			appended, sres.Sealed, *t.index, time.Since(t0).Round(time.Millisecond))
		return nil
	}
	return fmt.Errorf("-index (local file) or -remote (daemon URL) is required")
}

// cmdCompact merges an index's sealed shards: against a daemon it
// calls POST /v1/{index}/compact; against a local file it loads the
// index, compacts, and persists the result in place. -full merges all
// the way down to a single shard instead of stopping at the tiered
// policy's fixpoint.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	t := addTargetFlags(fs)
	full := fs.Bool("full", true, "merge down to a single shard (false = default tiered policy)")
	fs.Parse(args)
	ctx := context.Background()
	t0 := time.Now()

	report := func(merged, rows, before, after int) {
		if merged == 0 {
			fmt.Printf("already compact: %d shard(s), nothing to merge (%v)\n",
				after, time.Since(t0).Round(time.Millisecond))
			return
		}
		fmt.Printf("compacted %d shards down to %d (%d trajectories re-compressed, %v)\n",
			before, after, rows, time.Since(t0).Round(time.Millisecond))
	}

	switch {
	case *t.remote != "" && *t.index != "":
		return fmt.Errorf("-index and -remote are mutually exclusive")
	case *t.remote != "":
		if *t.name == "" {
			return fmt.Errorf("-name is required with -remote")
		}
		c := server.NewClient(*t.remote, nil)
		resp, err := c.Compact(ctx, *t.name, *full)
		if err != nil {
			return err
		}
		report(resp.Merged, resp.Rows, resp.ShardsBefore, resp.ShardsAfter)
		return nil
	case *t.index != "":
		eng := engine.New(engine.Options{SealThreshold: -1})
		const name = "local"
		if err := eng.Load(name, *t.index); err != nil {
			return err
		}
		res, err := eng.Compact(ctx, name, *full)
		if err != nil {
			return err
		}
		report(res.Merged, res.Rows, res.ShardsBefore, res.ShardsAfter)
		return nil
	}
	return fmt.Errorf("-index (local file) or -remote (daemon URL) is required")
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
	q, err := t.open()
	if err != nil {
		return err
	}
	ctx := context.Background()
	info, err := q.Info(ctx)
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
		res, err := q.Search(ctx, cinct.Query{Path: path, Kind: cinct.CountOnly})
		if err != nil {
			return err
		}
		if got, want := res.count, querygen.NaiveCount(trajs, path); got != want {
			return fmt.Errorf("MISMATCH: Count(%v) = %d, naive scan = %d", path, got, want)
		}
	}
	// Reconstruction spot checks, evenly spread over the ID space.
	recons := *samples/10 + 1
	for k := 0; k < recons; k++ {
		id := k * len(trajs) / recons
		got, err := q.Trajectory(ctx, id)
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
