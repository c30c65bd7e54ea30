// Package mmapfile maps read-only index files into memory. On unix
// hosts Open memory-maps the file: the map itself reads nothing, the
// kernel pages data in on demand and evicts it under pressure, and
// multiple processes serving the same file share physical pages. What
// a caller's view then touches is its own cost — a container view
// reads every shard's C, symbol map and ET-graph, O(σ + |E|), and each
// wavelet-tree node's header — and the kernel faults in whole
// page-cache folios, so a file copied with large writes can come in
// whole on the first touch. On other hosts (or when the map syscall
// fails) Open falls back to reading the whole file into an
// 8-byte-aligned heap buffer, preserving the API at heap-load cost.
package mmapfile

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

// File is a read-only, word-addressable view of a file. It is safe
// for concurrent readers. The mapping is released by Close or, if the
// File is dropped without closing, by a garbage-collection cleanup —
// so long-lived readers must keep the File reachable.
type File struct {
	data   []byte
	mapped bool

	mu      sync.Mutex
	closed  bool
	cleanup runtime.Cleanup
}

// Open maps path read-only. The returned File's Bytes and Words views
// stay valid until Close.
func Open(path string) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer osf.Close()
	st, err := osf.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("mmapfile: %s: %d bytes exceeds the address space", path, size)
	}
	f := &File{}
	if size > 0 {
		if data, err := mapFile(osf, int(size)); err == nil {
			f.data, f.mapped = data, true
		} else if f.data, err = readAligned(osf, int(size)); err != nil {
			return nil, fmt.Errorf("mmapfile: %s: %w", path, err)
		}
	}
	if f.mapped {
		// A dropped-but-unclosed File would otherwise leak its mapping
		// for the life of the process; let the GC release it.
		f.cleanup = runtime.AddCleanup(f, func(data []byte) { _ = unmap(data) }, f.data)
	}
	return f, nil
}

// readAligned reads the whole file into a word-backed buffer so Words
// can reinterpret it without an alignment fault.
func readAligned(osf *os.File, size int) ([]byte, error) {
	words := make([]uint64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)[:size]
	if _, err := osf.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// Mapped reports whether the file is memory-mapped (false for the
// heap fallback).
func (f *File) Mapped() bool { return f.mapped }

// Len returns the file size in bytes.
func (f *File) Len() int { return len(f.data) }

// Bytes returns the raw contents. The slice must not be written to
// and becomes invalid after Close.
func (f *File) Bytes() []byte { return f.data }

// Words returns the contents as full 64-bit words (truncating any
// byte-level tail; v3 containers are always a whole number of words).
// mmap returns page-aligned memory and the fallback allocates word
// slices, so the reinterpretation is always aligned.
func (f *File) Words() []uint64 {
	n := len(f.data) / 8
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(f.data))), n)
}

// Close releases the mapping. It is idempotent, but any outstanding
// Bytes/Words views must no longer be used: only call it when no
// reader can still hold one (tests, CLI tools). Long-lived servers
// can instead drop the File and let the GC cleanup release it once
// every view is unreachable.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	data := f.data
	f.data = nil
	if f.mapped {
		f.cleanup.Stop() // exactly one of Close and the GC cleanup unmaps
		return unmap(data)
	}
	return nil
}
