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
// revision, never a side effect of a refactor. The other entries pin
// the committed fixtures under testdata/legacy/ — files nothing writes
// any more, which the readers refuse and `cinct convert` must keep
// decoding: /v1 the pre-v3 stream formats, /v3-all-rrr the version-3
// bytes Save wrote before wavelet-tree nodes could be plain, and
// /v3-int32 the ones it wrote before the locate samples were packed,
// /v4 the version-4 ones, and /v5-wt1 the version-5 ones whose labeled
// wavelet trees are kind 6 encoding 1.
//
// Re-pinned /v3 when each wavelet-tree node began keeping RRR only
// where it is at least 1/8 smaller than plain: node kinds changed, the
// container did not.
//
// Re-pinned /v3 when the locate samples were packed at ⌈lg⌉ bits and
// the default SampleRate moved from 64 to 40: the locate section
// changed, so the container version word is 4.
//
// Re-pinned /v3 when every structure got its own TOC entry (container
// version 5): the section words are the version-4 ones, regrouped into
// one page-aligned frame per shard. /v4 pins the version-4 bytes Save
// wrote until then, frozen under testdata/legacy/.
//
// Re-pinned /v3 when the separator's context left the labeled wavelet
// tree: kind 6 moved to encoding 2 (the tree with every $ row labeled
// 1, then the wavelet matrix of the $ rows' symbols), the ET-graph lost
// the separator's out-edges, and the container version stayed 5.
// /v5-wt1 pins the bytes Save wrote until then, frozen under
// testdata/legacy/.
var goldenHashes = map[string]string{
	"spatial-1/v1":  "129a9ed4ebd8c5ac715edefbdfe98dd34c52a55074e52dc87247c61ae780d2ef",
	"spatial-1/v3":  "185d180d6c4cb861ec4e98952690d6dd714c4b4be58675638d2d28c30ef1937b",
	"spatial-4/v1":  "0955a30de2985af0a05e2c2d130f12b5c186dc3da8326635d6835713e1056d4c",
	"spatial-4/v3":  "fa040430dbcb0545943abd9cd5d16e47cfa56b7f4e7bbc1355923a80a3160c00",
	"temporal-1/v1": "dd598cce416697f78ec632d9bbf5f355b3996f9121010302ab9551d5630c197f",
	"temporal-1/v3": "e04b558ae2085d5cba28e67d2772ecd2e655f07feb9004a9c8c176ca2f471b90",
	"temporal-4/v1": "b670a187401fb7f7be67fa1ca09804a7e3c4b546991b75ad50acca13997949a1",
	"temporal-4/v3": "82c216d2e14c9f5521971a5d9ff98dd7ce93f99151f07d30431fc2040198258a",

	"spatial-4/v3-all-rrr":  "9e456dd051aa3b102b9b0e09adac701e999f185602f46d836b8ed8c34f2c5a3b",
	"temporal-1/v3-all-rrr": "eacbb31f4785f728b0b52874921232887d8e148f053550a24c5e4a39058dd4e2",

	"spatial-1/v3-int32":  "951e642828f2fa7fd045baabea546b3a44abef82a9218d451482e4571d80c9ef",
	"spatial-4/v3-int32":  "9798ce583570932ca2642b0d41703fd733d44bc7a9b18dc1fa732e34bc6609da",
	"temporal-1/v3-int32": "0b4d28d199ce767931061db25997a2251d56f39cf62f7a842fda78aee3e135e2",
	"temporal-4/v3-int32": "a221214d0e31aaedb068a26ae36d7398e82a99f4c8daf821b019ab5b18e28949",

	"spatial-1/v4":  "627cb1644915dbf26ec8a90cd47d3101fa714ae90ce404f60ee9c5a14321b735",
	"spatial-4/v4":  "07c5d91de84ad840c9f91fcf00612874727a2cf50b23c0546a54dedfe224b363",
	"temporal-1/v4": "48f3160e8d46f234368e82ea1392965505f07c9a1d42fa88fd8e89df20707355",
	"temporal-4/v4": "4366c549eef5b43e8b97e28fe37d936531bcd385268713731848f96ed54fb7b7",

	"spatial-1/v5-wt1":  "cd481ba83ce9af8b5784dc673f026257d9a333b67633a0166117b689f326ff18",
	"spatial-4/v5-wt1":  "b2efb59de9849a95cb8cac500cfc0988a6440138e55062b26486396486017fca",
	"temporal-1/v5-wt1": "fe5cd297ca3453688232bfbcc77e33ff43d17a5c7d2e6dcc7fa74a9e96518dfe",
	"temporal-4/v5-wt1": "f28c4a9b49937c130d9ab5141746a536523f89950cb35f34c17044f3272aa0f7",
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
		checkFixture("spatial-"+tc.name+"/v4", "v4-spatial-"+tc.name+".cinct")
		checkFixture("temporal-"+tc.name+"/v4", "v4-temporal-"+tc.name+".tcinct")
		checkFixture("spatial-"+tc.name+"/v5-wt1", "v5-spatial-"+tc.name+".cinct")
		checkFixture("temporal-"+tc.name+"/v5-wt1", "v5-temporal-"+tc.name+".tcinct")
	}
	checkFixture("spatial-4/v3-all-rrr", "v3-all-rrr-spatial-4.cinct")
	checkFixture("temporal-1/v3-all-rrr", "v3-all-rrr-temporal-1.tcinct")
}
