package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWALReplay drives the segment decoder — the code path every
// engine start runs over bytes a crash may have mangled — with
// arbitrary input. Contract: never panic, never allocate beyond the
// input's implied size, report a good-offset that splits the input
// into a decodable prefix and a rejected tail, and decode losslessly
// (re-encoding the batches reproduces the accepted prefix).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte(segMagic))
	f.Add([]byte("not a segment"))
	for _, valid := range [][]byte{
		validSegment(f,
			Batch{FirstID: 0, Trajs: [][]uint32{{1, 2, 3}, {4}}},
			Batch{FirstID: 2, Trajs: [][]uint32{{7, 8}}, Times: [][]int64{{100, 90}}}),
		validSegment(f,
			Batch{FirstID: 0, Trajs: [][]uint32{{1, 2, 3}, {4, 5}}},
			Batch{FirstID: 2, Trajs: [][]uint32{{7, 8, 9}}, Times: [][]int64{{100, 90, 250}}}),
	} {
		f.Add(valid)
		f.Add(valid[:len(valid)-3]) // torn tail
		flipped := bytes.Clone(valid)
		flipped[len(segMagic)+5] ^= 0x01 // bit-flipped CRC field
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batches, good, err := readSegment(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0,%d]", good, len(data))
		}
		if err == nil && good != int64(len(data)) {
			t.Fatalf("clean decode stopped at %d of %d bytes", good, len(data))
		}
		if good == 0 && len(batches) > 0 {
			t.Fatalf("%d batches decoded from a rejected segment", len(batches))
		}
		if good == 0 {
			return
		}
		// Semantic round trip: whatever decoded must re-encode and
		// decode back to itself (byte equality is too strong — the
		// varint reader tolerates non-minimal encodings).
		out := []byte(segMagic)
		for _, b := range batches {
			rec, rerr := encodeRecord(b)
			if rerr != nil {
				t.Fatalf("decoded batch does not re-encode: %v", rerr)
			}
			out = append(out, rec...)
		}
		again, _, rerr := readSegment(out)
		if rerr != nil {
			t.Fatalf("re-encoded segment does not decode: %v", rerr)
		}
		if !reflect.DeepEqual(again, batches) {
			t.Fatalf("round trip drifted: %+v vs %+v", again, batches)
		}
	})
}

// validSegment builds an in-memory segment holding batches, as the log
// writes them: the magic, then one record per batch.
func validSegment(f *testing.F, batches ...Batch) []byte {
	f.Helper()
	out := []byte(segMagic)
	for _, b := range batches {
		rec, err := encodeRecord(b)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, rec...)
	}
	return out
}

// TestReadSegmentRejectsOversizedLength pins the allocation guard: a
// frame declaring a payload over the cap must fail without the decoder
// trying to honor it.
func TestReadSegmentRejectsOversizedLength(t *testing.T) {
	data := append([]byte(segMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	if _, good, err := readSegment(data); err == nil || good != int64(len(segMagic)) {
		t.Fatalf("oversized length: good=%d err=%v", good, err)
	}
}

// TestDecodeBatchRoundTrip pins the payload coding against a
// representative batch, including negative and non-monotone
// timestamps (zig-zag deltas).
func TestDecodeBatchRoundTrip(t *testing.T) {
	want := Batch{
		FirstID: 41,
		Trajs:   [][]uint32{{1, 1 << 30, 3}, {2}},
		Times:   [][]int64{{-5, 1 << 40, 7}, {0}},
	}
	rec, err := encodeRecord(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBatch(rec[frameBytes:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}
