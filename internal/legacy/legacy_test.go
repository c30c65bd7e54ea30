package legacy

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cinct"
)

// The committed files under testdata/ are bare sub-streams written by
// the per-package writers builds had before v3: markov1.v1 is a core
// index over markovText(seed 1: 30, 25, 20, 3) at the then-default SA
// sample rate 64, markov2-nolocate.v1 one over markovText(seed 2: 10,
// 15, 10, 2) without locate support, meta.v1 the corpus metadata of
// metaTrajs, columns3.v1 a store of randomColumns(seed 3, 30). The
// whole files they make up are the fixtures under ../../testdata/legacy.

func fixture(t *testing.T, path ...string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(path...))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func reader(data []byte) stream { return stream{bufio.NewReader(bytes.NewReader(data))} }

// decodeCore, decodeMeta and decodeStore run one sub-stream's decoder
// as Decode does, failures returned as errors.
func decodeCore(s stream) (text []uint32, sigma int, opts Options, err error) {
	err = catch(func() { text, sigma, opts = s.core() })
	return text, sigma, opts, err
}

func decodeMeta(s stream) (m *meta, err error) {
	err = catch(func() { m = s.meta() })
	return m, err
}

func decodeStore(s stream) (cols [][]int64, err error) {
	err = catch(func() { cols = s.store() })
	return cols, err
}

// markovText builds a trajectory-string-like sequence: random walks on
// a sparse successor map, reversed, '$'-separated, '#'-terminated (the
// generator of the core package's tests).
func markovText(rng *rand.Rand, nWalks, walkLen, nStates, deg int) []uint32 {
	succ := make([][]uint32, nStates)
	for s := range succ {
		succ[s] = make([]uint32, deg)
		for d := range succ[s] {
			succ[s][d] = uint32(rng.Intn(nStates))
		}
	}
	var text []uint32
	for w := 0; w < nWalks; w++ {
		walk := make([]uint32, walkLen)
		cur := uint32(rng.Intn(nStates))
		for i := range walk {
			walk[i] = cur + 2
			d := 0
			if rng.Float64() > 0.6 {
				d = rng.Intn(deg)
			}
			cur = succ[cur][d]
		}
		for i := walkLen - 1; i >= 0; i-- {
			text = append(text, walk[i])
		}
		text = append(text, 1)
	}
	return append(text, 0)
}

// TestDecodeCoreMarkov1 pins the core stream: the labeled BWT inverts
// to exactly the text it was built over, and the header's options come
// back.
func TestDecodeCoreMarkov1(t *testing.T) {
	want := markovText(rand.New(rand.NewSource(1)), 30, 25, 20, 3)
	text, sigma, opts, err := decodeCore(reader(fixture(t, "testdata", "markov1.v1")))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(text, want) || sigma != 22 {
		t.Fatalf("decoded %d symbols over σ=%d, want the %d-symbol markov text over σ=22", len(text), sigma, len(want))
	}
	if opts != (Options{Block: 63, SampleRate: 64}) {
		t.Fatalf("options %+v, want RRR 63 at SampleRate 64", opts)
	}
}

// TestDecodeCoreWithoutLocate pins a core stream without locate
// samples: the text is recovered all the same, since the index is a
// self-index.
func TestDecodeCoreWithoutLocate(t *testing.T) {
	want := markovText(rand.New(rand.NewSource(2)), 10, 15, 10, 2)
	text, _, opts, err := decodeCore(reader(fixture(t, "testdata", "markov2-nolocate.v1")))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(text, want) || opts.SampleRate != 0 {
		t.Fatalf("decoded %v at SampleRate %d, want %v at 0", text, opts.SampleRate, want)
	}
}

func TestDecodeCoreRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{[]byte("not an index"), nil} {
		if _, _, _, err := decodeCore(reader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decodeCore(%q): want ErrCorrupt, got %v", data, err)
		}
	}
}

func TestDecodeCoreRejectsTruncated(t *testing.T) {
	full := fixture(t, "testdata", "markov1.v1")
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := int(float64(len(full)) * frac)
		if _, _, _, err := decodeCore(reader(full[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d bytes: want ErrCorrupt, got %v", cut, err)
		}
	}
}

var metaTrajs = [][]uint32{
	{100, 200, 300},
	{300, 100},
	{4000000000}, // near the uint32 ceiling
}

// TestDecodeMeta pins the corpus metadata stream: the edge map and the
// document tables of metaTrajs.
func TestDecodeMeta(t *testing.T) {
	m, err := decodeMeta(reader(fixture(t, "testdata", "meta.v1")))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.edges, []uint32{100, 200, 300, 4000000000}) || !slices.Equal(m.lens, []int{3, 2, 1}) || m.n != 10 {
		t.Fatalf("decoded edges %v, lengths %v, text length %d", m.edges, m.lens, m.n)
	}
	// The text those tables describe splits back into metaTrajs.
	text := []uint32{4, 3, 2, 1, 2, 4, 1, 5, 1, 0}
	var got [][]uint32
	if err := catch(func() { got = m.split(text) }); err != nil || !slices.EqualFunc(got, metaTrajs, slices.Equal) {
		t.Fatalf("split = %v, %v; want %v", got, err, metaTrajs)
	}
}

func TestDecodeMetaRejectsGarbage(t *testing.T) {
	if _, err := decodeMeta(reader([]byte("bogus"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	full := fixture(t, "testdata", "meta.v1")
	for _, cut := range []int{0, 3, len(full) - 1} {
		if _, err := decodeMeta(reader(full[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: want ErrCorrupt, got %v", cut, err)
		}
	}
}

// randomColumns draws n timestamp columns of 1..40 entries (the
// generator of the tempo package's tests).
func randomColumns(rng *rand.Rand, n int) [][]int64 {
	out := make([][]int64, n)
	for k := range out {
		col := make([]int64, 1+rng.Intn(40))
		t := int64(1600000000) + rng.Int63n(1e6)
		for i := range col {
			t += rng.Int63n(120)
			col[i] = t
		}
		out[k] = col
	}
	return out
}

// TestDecodeStore pins the timestamp store stream against the columns
// it was written from.
func TestDecodeStore(t *testing.T) {
	want := randomColumns(rand.New(rand.NewSource(3)), 30)
	got, err := decodeStore(reader(fixture(t, "testdata", "columns3.v1")))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatal("decoded columns differ from the ones written")
	}
}

func TestDecodeStoreRejectsTruncated(t *testing.T) {
	full := fixture(t, "testdata", "columns3.v1")
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeStore(reader(full[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: want ErrCorrupt, got %v", cut, err)
		}
	}
}

// TestDecodeStoreRejectsCorruptBlob turns blob bytes into continuation
// bytes, stretching varints past the declared column shape.
func TestDecodeStoreRejectsCorruptBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	full := fixture(t, "testdata", "columns3.v1")
	rejected := 0
	for trial := 0; trial < 50; trial++ {
		mut := append([]byte(nil), full...)
		mut[len(mut)-1-rng.Intn(len(mut)/2)] = 0x80
		if _, err := decodeStore(reader(mut)); errors.Is(err, ErrCorrupt) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no corrupted blob was rejected")
	}
}

// preV3 lists the whole pre-v3 files under ../../testdata/legacy with
// their shard count and flavor (their corpora are pinned by the cinct
// package's tests).
var preV3 = []struct {
	file     string
	shards   int
	temporal bool
}{
	{"spatial-1.cinct", 1, false},
	{"spatial-4.cinct", 4, false},
	{"temporal-1.tcinct", 1, true},
	{"temporal-4.tcinct", 4, true},
	{"temporal-1-unversioned.tcinct", 1, true},
	{"global-store-unversioned.tcinct", 3, true},
	{"global-store-cncttemp.tcinct", 3, true},
}

// TestDecodeFixtures pins Decode on every whole pre-v3 file: the shard
// count and the options recorded, 120 trajectories, and the flavor
// taken from the bytes alone — a CNCTtemp magic or a store after the
// spatial stream.
func TestDecodeFixtures(t *testing.T) {
	for _, fx := range preV3 {
		c, err := Decode(bytes.NewReader(fixture(t, "..", "..", "testdata", "legacy", fx.file)))
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		if want := (Options{Block: 63, SampleRate: 64, Shards: fx.shards}); c.Options != want {
			t.Errorf("%s: options %+v, want %+v", fx.file, c.Options, want)
		}
		if len(c.Trajs) != 120 || (c.Times != nil) != fx.temporal {
			t.Errorf("%s: %d trajectories, timestamps %v; want 120, %v", fx.file, len(c.Trajs), c.Times != nil, fx.temporal)
		}
	}
}

// FuzzDecode pins Decode: arbitrary bytes decode to a corpus that
// cinct.Build accepts with the decoded options, or fail with
// ErrCorrupt — never a panic, never an allocation past a small multiple
// of the input. The in-code seeds are the whole pre-v3 fixtures; the
// committed ones are the frozen pre-v3 seeds of the cinct package's
// FuzzLoadSharded (spatial-*, and the crash regression
// 3a9bbfaf427a6827) and FuzzLoadTemporal (temporal-*).
func FuzzDecode(f *testing.F) {
	for _, fx := range preV3 {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", fx.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, magic := range []string{metaMagic, shardMagic, temporalMagic} {
		f.Add([]byte(magic))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip()
		}
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		opts := cinct.Options(c.Options)
		if c.Times == nil {
			_, err = cinct.Build(c.Trajs, &opts)
		} else {
			_, err = cinct.BuildTemporal(c.Trajs, c.Times, &opts)
		}
		if err != nil {
			t.Fatalf("Build refused a decoded corpus: %v", err)
		}
	})
}
