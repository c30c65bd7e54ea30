package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cinct/internal/gps"
	"cinct/internal/roadnet"
	"cinct/server"
)

// The raw-GPS pipeline subcommands: roadnet-gen fabricates a road
// network container, gps-simulate fabricates noisy device traces along
// known paths (with the ground truth on the side), gps-ingest posts
// traces to a daemon's map-matching endpoint, and subscribe registers
// a standing query and streams its notifications.

// cmdRoadnetGen writes a synthetic grid road network as a CNCTroad
// container — the artifact cinctd -roadnet and the gps subcommands
// consume.
func cmdRoadnetGen(args []string) error {
	fs := flag.NewFlagSet("roadnet-gen", flag.ExitOnError)
	out := fs.String("out", "", "output CNCTroad container file")
	w := fs.Int("w", 8, "grid width (nodes)")
	h := fs.Int("h", 8, "grid height (nodes)")
	seed := fs.Int64("seed", 1, "jitter seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	g := roadnet.Grid(*w, *h, *seed)
	if err := g.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("road network: %d nodes, %d edges -> %s\n", g.NumNodes(), g.NumEdges(), *out)
	return nil
}

// gpsWalk is a U-turn-free random walk over the road network — the
// ground-truth paths gps-simulate fabricates traces along.
func gpsWalk(g *roadnet.Graph, rng *rand.Rand, length int) []roadnet.EdgeID {
	cur := roadnet.EdgeID(rng.Intn(g.NumEdges()))
	path := []roadnet.EdgeID{cur}
	for len(path) < length {
		rev, hasRev := g.Reverse(cur)
		var choices []roadnet.EdgeID
		for _, nx := range g.NextEdges(cur) {
			if hasRev && nx == rev {
				continue
			}
			choices = append(choices, nx)
		}
		if len(choices) == 0 {
			break
		}
		cur = choices[rng.Intn(len(choices))]
		path = append(path, cur)
	}
	return path
}

// cmdGPSSimulate fabricates noisy timed traces along random walks and
// writes them as the NDJSON batch POST /v1/{index}/gps accepts. With
// -truth it also writes the ground-truth edge paths in corpus format
// (one line per trace), so a script can check the matched result.
func cmdGPSSimulate(args []string) error {
	fs := flag.NewFlagSet("gps-simulate", flag.ExitOnError)
	roadnetPath := fs.String("roadnet", "", "CNCTroad container to simulate on")
	out := fs.String("out", "", "output NDJSON trace file (default stdout)")
	truth := fs.String("truth", "", "also write ground-truth edge paths here (corpus format)")
	n := fs.Int("n", 10, "number of traces")
	length := fs.Int("len", 12, "edges per ground-truth path")
	noise := fs.Float64("noise", 0.05, "GPS noise sigma (map units)")
	start := fs.Int64("start", 1000, "first trace's first timestamp")
	dt := fs.Int64("dt", 15, "seconds between observations")
	seed := fs.Int64("seed", 1, "randomness seed")
	fs.Parse(args)
	if *roadnetPath == "" {
		return fmt.Errorf("-roadnet is required")
	}
	g, err := roadnet.LoadFile(*roadnetPath)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	var truthW *os.File
	if *truth != "" {
		if truthW, err = os.Create(*truth); err != nil {
			return err
		}
		defer truthW.Close()
	}
	rng := rand.New(rand.NewSource(*seed))
	enc := json.NewEncoder(w)
	at := *start
	for i := 0; i < *n; i++ {
		path := gpsWalk(g, rng, *length)
		tr := gps.Simulate(g, path, *noise, at, *dt, rng)
		at += int64(len(tr.Points))**dt + 1000
		if err := enc.Encode(tr); err != nil {
			return err
		}
		if truthW != nil {
			var line bytes.Buffer
			for j, e := range path {
				if j > 0 {
					line.WriteByte(' ')
				}
				fmt.Fprintf(&line, "%d", e)
			}
			line.WriteByte('\n')
			if _, err := truthW.Write(line.Bytes()); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "simulated %d traces over %d-edge walks (noise %.3f)\n", *n, *length, *noise)
	return nil
}

// readTraces decodes an NDJSON trace file.
func readTraces(path string) ([]gps.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var traces []gps.Trace
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var tr gps.Trace
		if err := json.Unmarshal(line, &tr); err != nil {
			return nil, fmt.Errorf("trace %d: %v", len(traces), err)
		}
		traces = append(traces, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return traces, nil
}

// cmdGPSIngest posts raw GPS traces to a daemon's map-matching ingest
// endpoint and reports the per-trace outcomes: accepted IDs and the
// reject-reason tally.
func cmdGPSIngest(args []string) error {
	fs := flag.NewFlagSet("gps-ingest", flag.ExitOnError)
	remote := fs.String("remote", "", "cinctd base URL (required)")
	name := fs.String("name", "", "index name at the daemon (required)")
	in := fs.String("in", "", "NDJSON trace file (gps-simulate output)")
	batch := fs.Int("batch", 200, "traces per request")
	verbose := fs.Bool("v", false, "print one line per trace")
	fs.Parse(args)
	if *remote == "" || *name == "" || *in == "" {
		return fmt.Errorf("-remote, -name and -in are required")
	}
	if *batch <= 0 {
		return fmt.Errorf("-batch must be > 0")
	}
	traces, err := readTraces(*in)
	if err != nil {
		return err
	}
	c := server.NewClient(*remote, nil)
	ctx := context.Background()
	t0 := time.Now()
	accepted, rejected, points := 0, 0, 0
	reasons := map[string]int{}
	for lo := 0; lo < len(traces); lo += *batch {
		hi := lo + *batch
		if hi > len(traces) {
			hi = len(traces)
		}
		resp, err := c.IngestGPS(ctx, *name, traces[lo:hi])
		if err != nil {
			return err
		}
		accepted += resp.Accepted
		rejected += resp.Rejected
		points += resp.Points
		for i, r := range resp.Results {
			if !r.Accepted {
				reasons[r.Reject]++
			}
			if *verbose {
				if r.Accepted {
					fmt.Printf("trace %d: accepted as trajectory %d (%d edges, %d skipped)\n",
						lo+i, r.ID, r.Edges, r.Skipped)
				} else {
					fmt.Printf("trace %d: rejected (%s, point %d)\n", lo+i, r.Reject, r.Point)
				}
			}
		}
	}
	fmt.Printf("ingested %d/%d traces (%d points) in %v\n",
		accepted, len(traces), points, time.Since(t0).Round(time.Millisecond))
	for reason, n := range reasons {
		fmt.Printf("  rejected %d: %s\n", n, reason)
	}
	_ = rejected
	return nil
}

// cmdSubscribe registers a standing query on a daemon and streams its
// notifications to stdout as JSON lines over SSE. It runs until the
// subscription ends (TTL expiry, cancel) or the process is interrupted,
// and fails if the stream drops without the daemon ending it.
func cmdSubscribe(args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	remote := fs.String("remote", "", "cinctd base URL (required)")
	name := fs.String("name", "", "index name at the daemon (required)")
	path := fs.String("path", "", "space-separated edge IDs the standing query watches")
	interval := addIntervalFlags(fs)
	ttl := fs.Duration("ttl", 0, "subscription lifetime (0 = server default, 15m)")
	fs.Parse(args)
	if *remote == "" || *name == "" {
		return fmt.Errorf("-remote and -name are required")
	}
	p, err := parsePath(*path)
	if err != nil {
		return err
	}
	req := server.SubscribeRequest{Path: p, TTLSeconds: int(*ttl / time.Second)}
	if iv := interval(); iv != nil {
		req.From, req.To = &iv.From, &iv.To
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := server.NewClient(*remote, nil)
	sub, err := c.Subscribe(ctx, *name, req)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "subscribed: %s (expires %s)\n",
		sub.Subscription, time.Unix(sub.ExpiresAt, 0).Format(time.RFC3339))
	defer func() {
		// Best-effort cancel so the daemon does not hold the buffer
		// until TTL expiry; a fresh context because ctx may be done.
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		c.Unsubscribe(cctx, *name, sub.Subscription) //nolint:errcheck // the TTL reaps it anyway
	}()
	enc := json.NewEncoder(os.Stdout)
	for n, err := range c.Notifications(ctx, *name, sub.Subscription) {
		if err != nil {
			return err
		}
		if err := enc.Encode(n); err != nil {
			return err
		}
	}
	return nil
}
