// Command cinctd is the CiNCT query daemon: it loads every index from
// a data directory into an engine catalog and serves JSON queries over
// HTTP until interrupted, then shuts down gracefully.
//
//	cinctd -data ./indexes -addr :8132
//
// The data directory holds *.cinct and *.tcinct files, v3 containers
// whose header says whether they carry timestamps (.tcinct is the
// conventional name of a temporal one); each is served under its base
// filename (a pre-v3 file stops start-up with an error naming it:
// rewrite it once with `cinct convert`). Every file is served from a
// memory mapping (one aligned read where the host cannot map), so
// replace a served file by rename, as `cinct build` and `cinct convert`
// do: truncating a mapped file in place faults the daemon. The routes:
//
//	GET  /v1/indexes                       catalog + stats + runtime gauges
//	GET  /metrics                          Prometheus text-format metrics
//	POST /v1/{index}/query                 every retrieval: a JSON cinct.Query → NDJSON hits + summary
//	GET  /v1/{index}/trajectory/{id}       full reconstruction
//	GET  /v1/{index}/subpath?traj=5&from=2&to=9
//	POST /v1/{index}/ingest                NDJSON append batch (live ingestion)
//	POST /v1/{index}/gps                   NDJSON raw GPS traces → map-match → append
//	POST /v1/{index}/subscribe             register a standing query
//	GET  /v1/{index}/subscriptions/{id}/events   SSE notification stream
//	DELETE /v1/{index}/subscriptions/{id}  cancel a standing query
//	POST /v1/{index}/seal                  compact the delta, persist to the data dir
//	POST /v1/{index}/compact               merge sealed shards (?full=true → one shard)
//	POST /v1/{index}/reload                re-read from disk, bump generation
//
// Raw-GPS ingestion needs a road network: each -roadnet flag (repeatable)
// attaches a CNCTroad container, either to one index ("name=file.road")
// or as the default for every index ("file.road").
//
// Appended trajectories live in an in-memory delta (immediately
// queryable); once the delta reaches -seal-threshold trajectories a
// background seal compacts it into a compressed shard and persists
// the sealed index back to its file in the data dir. With -wal set,
// every acknowledged append is also written to a per-index
// write-ahead log and replayed on restart, so appends survive a crash
// between seals; with -compact-interval set, a background compactor
// keeps each live index's sealed-shard fan-out bounded by the tiered
// policy (-compact-min-shards / -compact-max-shards / -compact-ratio).
//
// Traffic management: -rate-limit enforces a per-client request budget
// (429 + Retry-After past it), -max-inflight sheds requests beyond the
// concurrency gate with 503, -shed-cost rejects expensive queries when
// the worker pool is saturated instead of queueing them, and
// -slow-query logs every query over the threshold with its full cost
// account. GET /metrics exposes the whole operational surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only when -pprof is set
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cinct"
	"cinct/internal/engine"
	"cinct/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8132", "listen address")
		data    = flag.String("data", "", "directory of *.cinct / *.tcinct index files (required)")
		workers = flag.Int("workers", 0, "max concurrent index traversals (0 = GOMAXPROCS)")
		cache   = flag.Int("cache", 0, "result cache entries (0 = default 4096, negative = off)")
		sealAt  = flag.Int("seal-threshold", 0,
			"auto-seal an index's ingest delta at this many trajectories (0 = default 4096, negative = manual sealing only)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request timeout (negative = none)")
		drain   = flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		// Accepted so existing command lines keep working.
		_         = flag.Bool("mmap", false, "no effect: index files are always served from a memory mapping")
		pprofAddr = flag.String("pprof", "",
			"serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling")
		walDir = flag.String("wal", "",
			"write-ahead log directory (one subdirectory per index); empty disables the WAL")
		walSync = flag.Duration("wal-sync", 0,
			"WAL group-commit fsync interval (0 = 50ms default, negative = no timer)")
		walSyncBytes = flag.Int("wal-sync-bytes", 0,
			"fsync the WAL once this many unsynced bytes accumulate (0 = 1MiB default, negative = every append)")
		compactEvery = flag.Duration("compact-interval", 0,
			"background compaction sweep cadence (0 disables; POST /v1/{index}/compact always works)")
		compactMin = flag.Int("compact-min-shards", 0,
			"merge a tier once it holds this many coherent-sized shards (0 = default 4)")
		compactMax = flag.Int("compact-max-shards", 0,
			"merge at most this many shards per round (0 = default 16)")
		compactRatio = flag.Int("compact-ratio", 0,
			"shards within this size ratio form one tier (0 = default 8)")
		rateLimit = flag.Float64("rate-limit", 0,
			"per-client request budget in requests/second, keyed by X-Client-ID or remote IP (0 disables; over-budget requests get 429 + Retry-After)")
		rateBurst = flag.Int("rate-burst", 0,
			"per-client token-bucket depth (0 = 2x rate-limit)")
		maxInflight = flag.Int("max-inflight", 0,
			"shed API requests beyond this many in flight with 503 instead of queueing (0 disables the gate)")
		slowQuery = flag.Duration("slow-query", 0,
			"log every query at least this slow with its full cost account (0 disables)")
		shedCost = flag.Int64("shed-cost", 0,
			"with all workers busy, reject queries whose estimated cost reaches this threshold with 503 instead of queueing (0 = queue everything)")
	)
	type roadnetBinding struct{ index, path string }
	var roadnets []roadnetBinding
	flag.Func("roadnet",
		"attach a CNCTroad road-network container for raw GPS ingest: \"index=file.road\" binds one index, \"file.road\" is the default for all (repeatable)",
		func(v string) error {
			b := roadnetBinding{path: v}
			if i := strings.IndexByte(v, '='); i >= 0 {
				b.index, b.path = v[:i], v[i+1:]
			}
			if b.path == "" {
				return fmt.Errorf("empty road-network path")
			}
			roadnets = append(roadnets, b)
			return nil
		})
	flag.Parse()
	logger := log.New(os.Stderr, "cinctd: ", log.LstdFlags)
	if *data == "" {
		logger.Fatal("-data is required")
	}

	if *pprofAddr != "" {
		// Profiling stays off the query listener: pprof binds its own
		// address (keep it loopback in production) with the default
		// mux, which net/http/pprof's import hooks populate.
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			logger.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	eng := engine.New(engine.Options{
		Workers: *workers, CacheEntries: *cache,
		SealThreshold: *sealAt, Logf: logger.Printf,
		SlowQuery: *slowQuery,
		ShedCost:  *shedCost,
		WAL: engine.WALOptions{
			Dir: *walDir, SyncInterval: *walSync, SyncBytes: *walSyncBytes,
		},
		Compaction: engine.CompactionOptions{
			Interval: *compactEvery,
			Policy: cinct.CompactionPolicy{
				MinShards: *compactMin, MaxShards: *compactMax, TierRatio: *compactRatio,
			},
		},
	})
	defer eng.CloseAll()
	names, err := eng.OpenDir(*data)
	if err != nil {
		logger.Fatalf("loading %s: %v", *data, err)
	}
	if len(names) == 0 {
		logger.Fatalf("no *%s or *%s files under %s", engine.ExtSpatial, engine.ExtTemporal, *data)
	}
	for _, name := range names {
		info, err := eng.Info(name)
		if err != nil {
			logger.Fatalf("stat %s: %v", name, err)
		}
		kind := "spatial"
		if info.Temporal {
			kind = "temporal"
		}
		mode := "heap"
		if info.Mapped {
			mode = "mmap"
		}
		logger.Printf("loaded %q (%s, %s): %d trajectories, %d shard(s), %.2f bits/symbol",
			name, kind, mode, info.Stats.Trajectories, info.Stats.Shards, info.Stats.BitsPerSymbol)
	}
	for _, b := range roadnets {
		if err := eng.LoadRoadnet(b.index, b.path); err != nil {
			logger.Fatalf("loading road network %s: %v", b.path, err)
		}
	}

	srv := server.New(eng, server.Config{
		Addr: *addr, RequestTimeout: *timeout, Logger: logger,
		RateLimit: *rateLimit, RateBurst: *rateBurst, MaxInflight: *maxInflight,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Printf("serving %s on %s", strings.Join(names, ", "), *addr)

	select {
	case err := <-errc:
		if err != nil {
			logger.Fatalf("serve: %v", err)
		}
		return
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	logger.Printf("shutting down (draining up to %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		eng.Shutdown() // still sync the WALs before dying
		os.Exit(1)
	}
	// The listener has drained: stop the background compactor and
	// sync + close every write-ahead log before the process exits.
	eng.Shutdown()
	if err := <-errc; err != nil {
		logger.Fatalf("serve: %v", err)
	}
	fmt.Fprintln(os.Stderr, "cinctd: bye")
}
