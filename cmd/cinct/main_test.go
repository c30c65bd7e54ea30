package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/trajgen"
	"cinct/internal/trajio"
	"cinct/server"
)

// TestBuildWritesV3 pins that cinct build, with and without -times,
// writes the v3 container cinctd serves, of the flavor the corpus
// calls for.
func TestBuildWritesV3(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.txt")
	times := filepath.Join(dir, "times.txt")
	if err := os.WriteFile(corpus, []byte("1 2 3\n2 3 4\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(times, []byte("10 20 30\n40 50 60\n70 80\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spatial := filepath.Join(dir, "ix.cinct")
	temporal := filepath.Join(dir, "ix.tcinct")
	if err := cmdBuild([]string{"-in", corpus, "-index", spatial, "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", corpus, "-times", times, "-index", temporal}); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{spatial: false, temporal: true} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("CNCTidx3")) {
			t.Fatalf("%s starts with %q, want a v3 container", path, data[:min(8, len(data))])
		}
		ix, err := cinct.Load(bytes.NewReader(data))
		if err != nil || ix.Temporal() != want {
			t.Fatalf("%s: Load = %v; want Temporal() %v", path, err, want)
		}
	}
}

// TestBuildSampleDefaultsToLibrary pins that build, with and without
// -times, but without -sample, write exactly what the library's DefaultOptions
// build, so shards sealed or compacted onto a CLI-built file share its
// sample rate. A build with another -sample must differ, or the
// comparison would not see the rate at all.
func TestBuildSampleDefaultsToLibrary(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.txt")
	times := filepath.Join(dir, "times.txt")
	var trajs, timeText bytes.Buffer
	for k := 0; k < 60; k++ {
		fmt.Fprintf(&trajs, "%d %d %d %d\n", k%7+1, k%5+10, k%3+20, k%11+30)
		fmt.Fprintf(&timeText, "%d %d %d %d\n", 10*k, 10*k+1, 10*k+2, 10*k+3)
	}
	if err := os.WriteFile(corpus, trajs.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(times, timeText.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	trs, err := readCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	opts := cinct.DefaultOptions()
	opts.Shards = 2
	ix, err := cinct.Build(trs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := ix.Save(&want); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(times)
	if err != nil {
		t.Fatal(err)
	}
	tms, err := trajio.ReadTimes(tf)
	tf.Close()
	if err != nil {
		t.Fatal(err)
	}
	tix, err := cinct.BuildTemporal(trs, tms, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wantTemporal bytes.Buffer
	if _, err := tix.Save(&wantTemporal); err != nil {
		t.Fatal(err)
	}

	build := func(extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, "ix.cinct")
		if err := cmdBuild(append([]string{"-in", corpus, "-index", path, "-shards", "2"}, extra...)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(build(), want.Bytes()) {
		t.Fatal("cinct build without -sample differs from a DefaultOptions build")
	}
	if bytes.Equal(build("-sample", "64"), want.Bytes()) {
		t.Fatal("cinct build -sample 64 equals the default build; the rate is not in the bytes")
	}
	path := filepath.Join(dir, "ix.tcinct")
	if err := cmdBuild([]string{"-in", corpus, "-times", times, "-index", path, "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wantTemporal.Bytes()) {
		t.Fatalf("cinct build -times without -sample differs from a DefaultOptions build (%v)", err)
	}
}

// legacyCorpus regenerates the corpus of the files under
// testdata/legacy (timedCorpus in the cinct package's tests).
func legacyCorpus(seed int64) ([][]uint32, [][]int64) {
	trajs := trajgen.MOGen(trajgen.Config{GridW: 8, GridH: 8, NumTrajs: 120, MeanLen: 20, Seed: seed}).Trajs
	rng := rand.New(rand.NewSource(seed))
	times := make([][]int64, len(trajs))
	for k, tr := range trajs {
		col := make([]int64, len(tr))
		t := int64(1_700_000_000) + rng.Int63n(86400)
		for i := range col {
			col[i] = t
			t += 20 + rng.Int63n(60)
		}
		times[k] = col
	}
	return trajs, times
}

// TestConvertLegacyFixtures converts every old fixture, version-3 and
// -4 containers and version-5 ones with kind 6 encoding 1 included,
// under a neutral file name, so nothing but the
// bytes can tell whether it is temporal. The output must hold what the
// input held — temporal or not, every trajectory and every timestamp —
// and be byte-equal to Save of a fresh build of that corpus with the
// options the file recorded: the fixture's shard count at the sample
// rate that was the default when it was written (64, or 40 for the
// version-4 and -5 files).
func TestConvertLegacyFixtures(t *testing.T) {
	for _, fx := range []struct {
		file     string
		seed     int64
		shards   int
		temporal bool
	}{
		{"spatial-1.cinct", 7, 1, false},
		{"spatial-4.cinct", 7, 4, false},
		{"temporal-1.tcinct", 7, 1, true},
		{"temporal-4.tcinct", 7, 4, true},
		{"temporal-1-unversioned.tcinct", 7, 1, true},
		{"global-store-unversioned.tcinct", 12, 3, true},
		{"global-store-cncttemp.tcinct", 12, 3, true},
		{"v3-all-rrr-spatial-4.cinct", 7, 4, false},
		{"v3-all-rrr-temporal-1.tcinct", 7, 1, true},
		{"v3-int32-spatial-1.cinct", 7, 1, false},
		{"v3-int32-spatial-4.cinct", 7, 4, false},
		{"v3-int32-temporal-1.tcinct", 7, 1, true},
		{"v3-int32-temporal-4.tcinct", 7, 4, true},
		{"v4-spatial-1.cinct", 7, 1, false},
		{"v4-spatial-4.cinct", 7, 4, false},
		{"v4-temporal-1.tcinct", 7, 1, true},
		{"v4-temporal-4.tcinct", 7, 4, true},
		{"v5-spatial-1.cinct", 7, 1, false},
		{"v5-spatial-4.cinct", 7, 4, false},
		{"v5-temporal-1.tcinct", 7, 1, true},
		{"v5-temporal-4.tcinct", 7, 4, true},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		in, out := filepath.Join(dir, "old.bin"), filepath.Join(dir, "out.bin")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdConvert([]string{"-in", in, "-out", out}); err != nil {
			t.Fatalf("%s: convert: %v", fx.file, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := cinct.Load(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("%s: Load(converted): %v", fx.file, err)
		}
		if ix.Temporal() != fx.temporal {
			t.Fatalf("%s: converted to temporal %v, want %v", fx.file, ix.Temporal(), fx.temporal)
		}
		trajs, times := legacyCorpus(fx.seed)
		for id := range trajs {
			if tr, err := ix.Trajectory(id); err != nil || !slices.Equal(tr, trajs[id]) {
				t.Fatalf("%s: Trajectory(%d) = %v, %v; want %v", fx.file, id, tr, err, trajs[id])
			}
			if fx.temporal {
				if ts := ix.Timestamps(id); !slices.Equal(ts, times[id]) {
					t.Fatalf("%s: Timestamps(%d) = %v, want %v", fx.file, id, ts, times[id])
				}
			}
		}
		// The version-4 and -5 files were written at the default rate,
		// the others at 64; each header records its rate.
		opts := cinct.DefaultOptions()
		opts.Shards = fx.shards
		if !strings.HasPrefix(fx.file, "v4-") && !strings.HasPrefix(fx.file, "v5-") {
			opts.SampleRate = 64
		}
		var want bytes.Buffer
		if fx.temporal {
			tix, err := cinct.BuildTemporal(trajs, times, opts)
			if err == nil {
				_, err = tix.Save(&want)
			}
			if err != nil {
				t.Fatal(err)
			}
		} else {
			ix, err := cinct.Build(trajs, opts)
			if err == nil {
				_, err = ix.Save(&want)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: converted bytes differ from Save of a fresh build at SampleRate %d", fx.file, opts.SampleRate)
		}
	}
}

// TestLocalFlavorFromFile pins that a local -index loads as what its
// header says: a pre-v3 file is refused with the converter named, an
// interval query on a spatial index fails as not temporal rather than
// as corruption, and a spatial index named .tcinct simply serves as
// spatial.
func TestLocalFlavorFromFile(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.cinct")
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", "spatial-4.cinct"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCount([]string{"-index", old, "-path", "1 2"}); !errors.Is(err, cinct.ErrLegacyFormat) ||
		!bytes.Contains([]byte(err.Error()), []byte("cinct convert")) {
		t.Fatalf("count on a pre-v3 file: %v, want ErrLegacyFormat naming cinct convert", err)
	}

	corpus := filepath.Join(dir, "corpus.txt")
	if err := os.WriteFile(corpus, []byte("1 2 3\n2 3 4\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spatial.cinct", "spatial.tcinct"} {
		path := filepath.Join(dir, name)
		if err := cmdBuild([]string{"-in", corpus, "-index", path, "-shards", "1"}); err != nil {
			t.Fatal(err)
		}
		if err := cmdCount([]string{"-index", path, "-path", "2 3"}); err != nil {
			t.Fatalf("%s: count: %v", name, err)
		}
		if err := cmdCount([]string{"-index", path, "-path", "2 3", "-from", "0"}); !errors.Is(err, cinct.ErrNoTimestamps) {
			t.Fatalf("%s: interval count: %v, want cinct.ErrNoTimestamps", name, err)
		}
	}
}

// stdout runs fn with os.Stdout sent to a file and returns what it
// printed, each "(duration)" removed: the one part of the output that
// timing decides.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	ferr := fn()
	os.Stdout = saved
	if ferr != nil {
		t.Fatal(ferr)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return durations.ReplaceAllString(string(out), "")
}

var durations = regexp.MustCompile(` \(([0-9.]+(ns|µs|ms|s|m|h))+\)`)

// writeCorpus writes trajectories, and their times when given, in the
// files cinct build and ingest read.
func writeCorpus(t *testing.T, trajs [][]uint32, times [][]int64, path, timesPath string) {
	t.Helper()
	var tb, mb bytes.Buffer
	if err := trajio.Write(&tb, trajs); err != nil {
		t.Fatal(err)
	}
	if err := trajio.WriteTimes(&mb, times); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(timesPath, mb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLocalMatchesRemote runs every query subcommand against -index F
// and against -remote on a daemon serving a copy of F, and requires
// the same output, byte for byte. Then ingest -index must leave F
// holding the old and the new trajectories.
func TestLocalMatchesRemote(t *testing.T) {
	dir := t.TempDir()
	trajs, times := legacyCorpus(7)
	n := 100
	corpus, timesPath := filepath.Join(dir, "corpus.txt"), filepath.Join(dir, "times.txt")
	writeCorpus(t, trajs[:n], times[:n], corpus, timesPath)
	ix := filepath.Join(dir, "ix.tcinct")
	if err := cmdBuild([]string{"-in", corpus, "-times", timesPath, "-index", ix, "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ix)
	if err != nil {
		t.Fatal(err)
	}
	served := filepath.Join(dir, "served.tcinct")
	if err := os.WriteFile(served, data, 0o644); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	if err := eng.Load("served", served); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(eng, server.Config{}).Handler())
	defer ts.Close()

	// both runs cmd with args against the file and against the daemon
	// and returns the output they agree on.
	both := func(cmd func([]string) error, args ...string) string {
		t.Helper()
		local := stdout(t, func() error { return cmd(append([]string{"-index", ix}, args...)) })
		remote := stdout(t, func() error { return cmd(append([]string{"-remote", ts.URL, "-name", "served"}, args...)) })
		if local != remote {
			t.Fatalf("%v: -index printed\n%s\n-remote printed\n%s", args, local, remote)
		}
		return local
	}
	path := fmt.Sprint(trajs[0][0])
	both(cmdStats)
	both(cmdCount, "-path", path)
	both(cmdCount, "-path", path, "-from", fmt.Sprint(times[0][0]))
	page := both(cmdFind, "-path", path, "-limit", "2")
	cursor := regexp.MustCompile(`next: -cursor (\S+)`).FindStringSubmatch(page)
	if cursor == nil {
		t.Fatalf("find -limit 2 printed no cursor:\n%s", page)
	}
	both(cmdFind, "-path", path, "-limit", "2", "-cursor", cursor[1])
	both(cmdFind, "-path", path, "-limit", "0", "-from", fmt.Sprint(times[0][0]))
	both(cmdFindTraj, "-path", path, "-limit", "0")
	both(cmdShow, "-traj", "5")
	both(cmdSubPath, "-traj", "5", "-from", "1", "-to", "4")
	if out := both(cmdVerify, "-in", corpus, "-samples", "40"); !strings.Contains(out, "OK") {
		t.Fatalf("verify printed %q", out)
	}

	more, moreTimes := filepath.Join(dir, "more.txt"), filepath.Join(dir, "more-times.txt")
	writeCorpus(t, trajs[n:], times[n:], more, moreTimes)
	if err := cmdIngest([]string{"-index", ix, "-in", more, "-times", moreTimes}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ix)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := cinct.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Trajectories != len(trajs) || !got.Temporal() {
		t.Fatalf("reopened after ingest: %d trajectories, temporal %v; want %d, temporal", got.Stats().Trajectories, got.Temporal(), len(trajs))
	}
	for _, id := range []int{0, n - 1, n, len(trajs) - 1} {
		if tr, err := got.Trajectory(id); err != nil || !slices.Equal(tr, trajs[id]) {
			t.Fatalf("reopened Trajectory(%d) = %v, %v; want %v", id, tr, err, trajs[id])
		}
		if ts := got.Timestamps(id); !slices.Equal(ts, times[id]) {
			t.Fatalf("reopened Timestamps(%d) = %v, want %v", id, ts, times[id])
		}
	}
}

// TestQueryFailureStaysTyped serves a file whose second shard fails to
// locate: a trajectories query streams the first shard's hits, well
// past what the server buffers, and locating the second shard fails
// with cinct.ErrCorrupt. That failure stays typed end to end: find-traj
// fails with an error that errors.Is matches to cinct.ErrCorrupt
// against -index and against -remote, the daemon counts the request as
// a 500 (not a 200) as the engine counts a query error, and the same
// failure with nothing flushed yet is an ordinary 500 with an error
// body.
func TestQueryFailureStaysTyped(t *testing.T) {
	const n = 600
	trajs := make([][]uint32, n)
	for i := range trajs {
		trajs[i] = []uint32{1, 2, 3, 1, 2, uint32(4 + i%7)}
	}
	opts := cinct.DefaultOptions()
	opts.Shards = 2
	ix, err := cinct.Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q := cinct.Query{Path: []uint32{1, 2}, Kind: cinct.Trajectories, Limit: 3 * n / 4}
	data, first := corruptSecondShard(t, buf.Bytes(), q, n/2-20)
	file := filepath.Join(t.TempDir(), "c.cinct")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	if err := eng.Load("c", file); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(eng, server.Config{}).Handler())
	defer ts.Close()
	ctx := context.Background()

	// A cursor just before the first shard's last hit: resuming there
	// yields one hit before the failing shard.
	cl := server.NewClient(ts.URL, nil)
	page, err := cl.SearchPage(ctx, "c", cinct.Query{Path: q.Path, Kind: q.Kind, Limit: first - 1})
	if err != nil || len(page.Hits) != first-1 || page.Cursor == "" {
		t.Fatalf("first %d hits: %v, %v; want that many and a cursor", first-1, page, err)
	}

	before := scrapeMetrics(t, ts.URL)
	args := []string{"-path", "1 2", "-limit", fmt.Sprint(q.Limit)}
	for _, target := range [][]string{{"-remote", ts.URL, "-name", "c"}, {"-index", file}} {
		if err := cmdFindTraj(append(target, args...)); !errors.Is(err, cinct.ErrCorrupt) {
			t.Errorf("find-traj %s: %v, want cinct.ErrCorrupt", target[0], err)
		}
	}
	// On the wire: a 200 whose stream ends in a summary carrying the
	// error and its status.
	body := fmt.Sprintf(`{"path":[1,2],"kind":"trajectories","limit":%d}`, q.Limit)
	status, raw := post(t, ts.URL+"/v1/c/query", body)
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	var sum struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); status != http.StatusOK || err != nil ||
		len(lines) != first+1 || sum.Status != http.StatusInternalServerError || !strings.Contains(sum.Error, "corrupt") {
		t.Errorf("failing after the flush: HTTP %d, %d lines ending %q; want 200, %d hits, then a summary with status 500",
			status, len(lines), lines[len(lines)-1], first)
	}
	// Nothing flushed: the reply is the failure's own status.
	body = fmt.Sprintf(`{"path":[1,2],"kind":"trajectories","limit":%d,"cursor":%q}`, q.Limit, page.Cursor)
	status, raw = post(t, ts.URL+"/v1/c/query", body)
	var er server.ErrorResponse
	if err := json.Unmarshal([]byte(raw), &er); status != http.StatusInternalServerError || err != nil || !strings.Contains(er.Error, "corrupt") {
		t.Errorf("failing before a flush: HTTP %d %q, want 500 and an error body", status, raw)
	}
	after := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]int64{
		`cinct_http_requests_total{code="200"}`: 0,
		`cinct_http_requests_total{code="500"}`: 3,
		`cinct_query_errors_total`:              3,
	} {
		if got := after[series] - before[series]; got != want {
			t.Errorf("%s advanced by %d, want %d", series, got, want)
		}
	}
}

// corruptSecondShard flips bits of a saved two-shard index, from its end
// backwards, until the file loads and q yields at least min hits from
// the first shard before failing with cinct.ErrCorrupt. It returns the
// file and the number of hits before the failure.
func corruptSecondShard(t *testing.T, data []byte, q cinct.Query, min int) ([]byte, int) {
	t.Helper()
	mut := append([]byte(nil), data...)
	for off := len(mut) - 8; off >= 0; off -= 8 {
		for _, bit := range []int{0, 1, 7, 17, 33, 63} {
			mut[off+bit/8] ^= 1 << (bit % 8)
			if ix, err := cinct.Load(bytes.NewReader(mut)); err == nil {
				if res, err := ix.Search(context.Background(), q); err == nil {
					hits := 0
					for _, err := range res.All() {
						if err != nil {
							if errors.Is(err, cinct.ErrCorrupt) && hits >= min {
								return mut, hits
							}
							break
						}
						hits++
					}
				}
			}
			mut[off+bit/8] ^= 1 << (bit % 8)
		}
	}
	t.Fatal("no single-bit flip fails the second shard")
	return nil, 0
}

// post sends body to url and returns the status and the reply.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// scrapeMetrics reads the daemon's /metrics into series → value.
func scrapeMetrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]int64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if v, err := strconv.ParseInt(value, 10, 64); ok && err == nil && !strings.HasPrefix(line, "#") {
			series[name] = v
		}
	}
	return series
}
