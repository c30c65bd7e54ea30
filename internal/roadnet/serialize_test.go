package roadnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"testing"
)

func TestRoadnetRoundTrip(t *testing.T) {
	g := Grid(9, 7, 42)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(g.Nodes) || len(got.Edges) != len(g.Edges) {
		t.Fatalf("round trip: %d nodes / %d edges, want %d / %d",
			len(got.Nodes), len(got.Edges), len(g.Nodes), len(g.Edges))
	}
	for i, n := range g.Nodes {
		if got.Nodes[i] != n {
			t.Fatalf("node %d: %v != %v", i, got.Nodes[i], n)
		}
	}
	for i, e := range g.Edges {
		ge := got.Edges[i]
		if ge.ID != e.ID || ge.From != e.From || ge.To != e.To {
			t.Fatalf("edge %d: %+v != %+v", i, ge, e)
		}
		if math.Abs(ge.Length-e.Length) > 1e-12 {
			t.Fatalf("edge %d length: %v != %v", i, ge.Length, e.Length)
		}
	}
	// Adjacency must survive too — the matcher depends on it.
	for _, e := range g.Edges {
		want := g.NextEdges(e.ID)
		gotNext := got.NextEdges(e.ID)
		if len(want) != len(gotNext) {
			t.Fatalf("edge %d: NextEdges %v != %v", e.ID, gotNext, want)
		}
		for i := range want {
			if want[i] != gotNext[i] {
				t.Fatalf("edge %d: NextEdges %v != %v", e.ID, gotNext, want)
			}
		}
	}
}

func TestRoadnetFileRoundTrip(t *testing.T) {
	g := Grid(4, 4, 7)
	path := filepath.Join(t.TempDir(), "net.road")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Edges) != len(g.Edges) {
		t.Fatalf("%d edges, want %d", len(got.Edges), len(g.Edges))
	}
}

func TestRoadnetLoadRejectsCorrupt(t *testing.T) {
	g := Grid(5, 5, 3)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	mutate := func(fn func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return fn(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", good[:4]},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", mutate(func(b []byte) []byte { b[8] = 99; return b })},
		{"truncated header", good[:10]},
		{"truncated node table", good[:20+17]},
		{"truncated edge table", good[:len(good)-3]},
		{"trailing garbage", mutate(func(b []byte) []byte { return append(b, 0xAA) })},
		{"implausible node count", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 1<<31)
			return b
		})},
		{"edge endpoint out of range", mutate(func(b []byte) []byte {
			nNodes := binary.LittleEndian.Uint32(b[12:])
			off := 20 + int(nNodes)*16
			binary.LittleEndian.PutUint32(b[off:], nNodes+5)
			return b
		})},
		{"nan coordinate", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[20:], math.Float64bits(math.NaN()))
			return b
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(tc.data)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load = %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzLoadRoadnet pins the loader contract: arbitrary bytes produce a
// typed error or a structurally valid graph, never a panic; and any
// accepted input must itself round-trip.
func FuzzLoadRoadnet(f *testing.F) {
	for _, g := range []*Graph{Grid(3, 3, 1), Grid(4, 3, 2)} {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)/2]) // truncation
		overcount := bytes.Clone(valid)
		overcount[16] = 0xFF // the edge count past the body
		f.Add(overcount)
	}
	f.Add([]byte(roadMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		for _, e := range g.Edges {
			if int(e.From) >= len(g.Nodes) || int(e.To) >= len(g.Nodes) {
				t.Fatalf("accepted edge %d with out-of-range endpoints", e.ID)
			}
		}
		var out bytes.Buffer
		if err := g.Save(&out); err != nil {
			t.Fatalf("re-save of accepted graph failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input does not round-trip: %d bytes in, %d out", len(data), out.Len())
		}
	})
}
