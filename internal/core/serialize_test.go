package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// legacyFixture returns a committed legacy-format index file. The
// fixtures were written by the stream writer this package had before
// v3 became the only format written: markov1.v1 is Build(markovText
// seed 1: 30, 25, 20, 3, DefaultOptions()), markov2-nolocate.v1 is
// Build(markovText seed 2: 10, 15, 10, 2) with SASample 0.
func legacyFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSaveLoadRoundTrip pins Load of the legacy stream format: the
// fixture must answer exactly like a fresh Build of the same text.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	text, sigma := markovText(rng, 30, 25, 20, 3)
	orig := Build(text, sigma, DefaultOptions())

	loaded, err := Load(bytes.NewReader(legacyFixture(t, "markov1.v1")))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() || loaded.Sigma() != orig.Sigma() ||
		loaded.MaxLabel() != orig.MaxLabel() {
		t.Fatal("loaded header mismatch")
	}
	// Same query results.
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(5)
		start := rng.Intn(len(text) - m)
		pat := text[start : start+m]
		s1, e1, ok1 := orig.SuffixRange(pat)
		s2, e2, ok2 := loaded.SuffixRange(pat)
		if s1 != s2 || e1 != e2 || ok1 != ok2 {
			t.Fatalf("trial %d: ranges differ: [%d,%d)%v vs [%d,%d)%v",
				trial, s1, e1, ok1, s2, e2, ok2)
		}
	}
	// Same extraction and locate.
	for trial := 0; trial < 50; trial++ {
		j := int64(rng.Intn(len(text)))
		a := orig.Extract(j, 10)
		b := loaded.Extract(j, 10)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("extract differs at row %d", j)
			}
		}
		if orig.Locate(j) != loaded.Locate(j) {
			t.Fatalf("Locate(%d) differs", j)
		}
	}
}

func TestSaveLoadWithoutLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	text, sigma := markovText(rng, 10, 15, 10, 2)
	opt := DefaultOptions()
	opt.SASample = 0
	orig := Build(text, sigma, opt)
	loaded, err := Load(bytes.NewReader(legacyFixture(t, "markov2-nolocate.v1")))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Count(text[3:6]), orig.Count(text[3:6]); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an index"))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
	if _, err := Load(bytes.NewReader(nil)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat on empty, got %v", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	full := legacyFixture(t, "markov1.v1")
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := int(float64(len(full)) * frac)
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}
