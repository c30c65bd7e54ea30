package cinct

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenHashes pins container bytes for fixed-seed corpora
// (timedCorpus(7)), captured at commit 805741c — the last one before
// Index became the shard list. The /v3 entries are what Save (and its
// alias SaveV3) write; a container format is a contract with files
// already on disk, so any change there must be a deliberate format
// revision, never a side effect of a refactor. The /v1 entries are the
// pre-v3 stream formats nothing writes any more, pinned through the
// committed fixtures under testdata/legacy/ that `cinct convert` must
// keep decoding; the /v3-all-rrr entries are the v3 bytes Save wrote before
// wavelet-tree nodes could be plain, and the /v3-int32 entries the
// bytes it wrote before the locate samples were packed, also frozen
// there.
//
// Re-pinned /v3 when each wavelet-tree node began keeping RRR only
// where it is at least 1/8 smaller than plain: node kinds changed, the
// container did not.
//
// Re-pinned /v3 when the locate samples were packed at ⌈lg⌉ bits and
// the default SampleRate moved from 64 to 40: the locate section
// changed, so the container version word is 4.
var goldenHashes = map[string]string{
	"spatial-1/v1":  "129a9ed4ebd8c5ac715edefbdfe98dd34c52a55074e52dc87247c61ae780d2ef",
	"spatial-1/v3":  "627cb1644915dbf26ec8a90cd47d3101fa714ae90ce404f60ee9c5a14321b735",
	"spatial-4/v1":  "0955a30de2985af0a05e2c2d130f12b5c186dc3da8326635d6835713e1056d4c",
	"spatial-4/v3":  "07c5d91de84ad840c9f91fcf00612874727a2cf50b23c0546a54dedfe224b363",
	"temporal-1/v1": "dd598cce416697f78ec632d9bbf5f355b3996f9121010302ab9551d5630c197f",
	"temporal-1/v3": "48f3160e8d46f234368e82ea1392965505f07c9a1d42fa88fd8e89df20707355",
	"temporal-4/v1": "b670a187401fb7f7be67fa1ca09804a7e3c4b546991b75ad50acca13997949a1",
	"temporal-4/v3": "4366c549eef5b43e8b97e28fe37d936531bcd385268713731848f96ed54fb7b7",

	"spatial-4/v3-all-rrr":  "9e456dd051aa3b102b9b0e09adac701e999f185602f46d836b8ed8c34f2c5a3b",
	"temporal-1/v3-all-rrr": "eacbb31f4785f728b0b52874921232887d8e148f053550a24c5e4a39058dd4e2",

	"spatial-1/v3-int32":  "951e642828f2fa7fd045baabea546b3a44abef82a9218d451482e4571d80c9ef",
	"spatial-4/v3-int32":  "9798ce583570932ca2642b0d41703fd733d44bc7a9b18dc1fa732e34bc6609da",
	"temporal-1/v3-int32": "0b4d28d199ce767931061db25997a2251d56f39cf62f7a842fda78aee3e135e2",
	"temporal-4/v3-int32": "a221214d0e31aaedb068a26ae36d7398e82a99f4c8daf821b019ab5b18e28949",
}

func TestGoldenBytes(t *testing.T) {
	trajs, times := timedCorpus(7)
	type saver func(io.Writer) (int64, error)
	check := func(name string, data []byte) {
		t.Helper()
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != goldenHashes[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got, goldenHashes[name])
		}
	}
	checkSave := func(name string, saves ...saver) {
		t.Helper()
		for _, save := range saves {
			var buf bytes.Buffer
			n, err := save(&buf)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if int(n) != buf.Len() {
				t.Errorf("%s: reported %d bytes, wrote %d", name, n, buf.Len())
			}
			check(name, buf.Bytes())
		}
	}
	checkFixture := func(name, file string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", "legacy", file))
		if err != nil {
			t.Fatal(err)
		}
		check(name, data)
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"1", 1}, {"4", 4}} {
		opts := DefaultOptions()
		opts.Shards = tc.shards
		ix, err := Build(trajs, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkSave("spatial-"+tc.name+"/v3", ix.Save, ix.SaveV3)
		checkFixture("spatial-"+tc.name+"/v1", "spatial-"+tc.name+".cinct")
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkSave("temporal-"+tc.name+"/v3", tix.Save, tix.SaveV3)
		checkFixture("temporal-"+tc.name+"/v1", "temporal-"+tc.name+".tcinct")
		checkFixture("spatial-"+tc.name+"/v3-int32", "v3-int32-spatial-"+tc.name+".cinct")
		checkFixture("temporal-"+tc.name+"/v3-int32", "v3-int32-temporal-"+tc.name+".tcinct")
	}
	checkFixture("spatial-4/v3-all-rrr", "v3-all-rrr-spatial-4.cinct")
	checkFixture("temporal-1/v3-all-rrr", "v3-all-rrr-temporal-1.tcinct")
}
