// Package flat implements the word-level encoding shared by every
// section of the v3 container format: all data is a stream of
// little-endian 64-bit words, so the reading side can wrap an mmap'd
// (or heap-loaded) window as typed slices with no decode step. The
// Writer packs values into words portably on any host; the Cursor
// hands back zero-copy sub-slice views, which is why reading requires
// a little-endian host (see CanView) — the only platforms the serving
// path targets.
//
// Every variable-length field is length-prefixed and every read is
// bounds-checked against the window, so a corrupt length fails with
// ErrCorrupt instead of allocating, panicking, or walking past the
// mapping. Views never allocate: a lying length has nothing to
// amplify.
package flat

import (
	"errors"
	"math"
	"unsafe"
)

// ErrCorrupt reports a window whose lengths or values do not describe
// a well-formed stream.
var ErrCorrupt = errors.New("flat: corrupt section")

// hostLittle reports whether the host stores integers little-endian —
// the precondition for reinterpreting mapped words as narrower types.
var hostLittle = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// CanView reports whether this host can take zero-copy views over
// little-endian word streams. False only on big-endian hosts, where
// v3 containers cannot be opened.
func CanView() bool { return hostLittle }

// Writer accumulates a word stream. The zero value is ready to use.
type Writer struct {
	words []uint64
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Len returns the number of words written so far.
func (w *Writer) Len() int { return len(w.words) }

// Words returns the accumulated stream. The slice is owned by the
// Writer until the caller stops appending.
func (w *Writer) Words() []uint64 { return w.words }

// U64 appends one word.
func (w *Writer) U64(v uint64) { w.words = append(w.words, v) }

// I64 appends one signed word.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends one float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// U64s appends a length-prefixed word slice.
func (w *Writer) U64s(s []uint64) {
	w.U64(uint64(len(s)))
	w.words = append(w.words, s...)
}

// I64s appends a length-prefixed signed word slice.
func (w *Writer) I64s(s []int64) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.words = append(w.words, uint64(v))
	}
}

// U32s appends a length-prefixed uint32 slice, two values per word,
// low half first — the layout a little-endian []uint32 view reads
// back directly.
func (w *Writer) U32s(s []uint32) {
	w.U64(uint64(len(s)))
	for i := 0; i < len(s); i += 2 {
		v := uint64(s[i])
		if i+1 < len(s) {
			v |= uint64(s[i+1]) << 32
		}
		w.U64(v)
	}
}

// I32s appends a length-prefixed int32 slice (same packing as U32s).
func (w *Writer) I32s(s []int32) {
	w.U64(uint64(len(s)))
	for i := 0; i < len(s); i += 2 {
		v := uint64(uint32(s[i]))
		if i+1 < len(s) {
			v |= uint64(uint32(s[i+1])) << 32
		}
		w.U64(v)
	}
}

// U8s appends a length-prefixed byte slice, eight bytes per word,
// lowest-addressed byte in the low bits.
func (w *Writer) U8s(s []byte) {
	w.U64(uint64(len(s)))
	for i := 0; i < len(s); i += 8 {
		var v uint64
		end := i + 8
		if end > len(s) {
			end = len(s)
		}
		for j := end - 1; j >= i; j-- {
			v = v<<8 | uint64(s[j])
		}
		w.U64(v)
	}
}

// Cursor reads a word stream produced by Writer, latching the first
// error: once a read fails every later read returns a zero value and
// Err reports ErrCorrupt.
type Cursor struct {
	words []uint64
	pos   int
	bad   bool
}

// NewCursor wraps a word window.
func NewCursor(words []uint64) *Cursor { return &Cursor{words: words} }

// Err returns ErrCorrupt if any read overran the window or decoded an
// implausible length, nil otherwise.
func (c *Cursor) Err() error {
	if c.bad {
		return ErrCorrupt
	}
	return nil
}

// Remaining returns the number of unread words.
func (c *Cursor) Remaining() int { return len(c.words) - c.pos }

func (c *Cursor) fail() { c.bad = true }

// U64 reads one word.
func (c *Cursor) U64() uint64 {
	if c.bad || c.pos >= len(c.words) {
		c.fail()
		return 0
	}
	v := c.words[c.pos]
	c.pos++
	return v
}

// I64 reads one signed word.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// F64 reads one float64.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Int reads one word as a non-negative int, failing on values that do
// not fit.
func (c *Cursor) Int() int {
	v := c.U64()
	if v > math.MaxInt64 || int64(v) < 0 || uint64(int(v)) != v {
		c.fail()
		return 0
	}
	return int(v)
}

// length reads a length prefix for a field occupying words(n) words,
// validating it against the remaining window before any use.
func (c *Cursor) length(wordsPer func(n int) int) (int, bool) {
	n := c.Int()
	if c.bad {
		return 0, false
	}
	need := wordsPer(n)
	if need < 0 || need > c.Remaining() {
		c.fail()
		return 0, false
	}
	return n, true
}

// U64s reads a length-prefixed word slice as a zero-copy view.
func (c *Cursor) U64s() []uint64 {
	n, ok := c.length(func(n int) int { return n })
	if !ok {
		return nil
	}
	s := c.words[c.pos : c.pos+n]
	c.pos += n
	return s
}

// I64s reads a length-prefixed signed word slice as a zero-copy view.
func (c *Cursor) I64s() []int64 {
	w := c.U64s()
	if w == nil {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
}

// U32s reads a length-prefixed uint32 slice as a zero-copy view
// (little-endian host only).
func (c *Cursor) U32s() []uint32 {
	n, ok := c.length(func(n int) int { return (n + 1) / 2 })
	if !ok || n == 0 {
		return nil
	}
	nw := (n + 1) / 2
	w := c.words[c.pos : c.pos+nw]
	c.pos += nw
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(w))), 2*nw)[:n:n]
}

// I32s reads a length-prefixed int32 slice as a zero-copy view
// (little-endian host only).
func (c *Cursor) I32s() []int32 {
	u := c.U32s()
	if u == nil {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(u))), len(u))
}

// U8s reads a length-prefixed byte slice as a zero-copy view
// (little-endian host only).
func (c *Cursor) U8s() []byte {
	n, ok := c.length(func(n int) int { return (n + 7) / 8 })
	if !ok {
		return nil
	}
	nw := (n + 7) / 8
	w := c.words[c.pos : c.pos+nw]
	c.pos += nw
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*nw)[:n:n]
}
