// Package wal is the ingestion write-ahead log: appended trajectory
// batches are framed, CRC'd and written to segment files before the
// engine acknowledges them, so rows still in the in-memory delta
// survive a crash. On open the log replays every intact record (the
// engine feeds them back into the delta, skipping rows the persisted
// index already holds), truncates a torn tail, and resumes appending;
// segments whose rows have been sealed into a persisted index file
// are retired.
//
// Durability model: every Append issues the write(2) before
// returning, so an acknowledged row survives process death (SIGKILL)
// unconditionally; fsync is batched — by byte threshold and by timer —
// so an acknowledged row survives power loss once the batch window
// has elapsed. This is the standard group-commit trade: per-append
// fsync costs milliseconds, the window costs at most SyncInterval of
// acknowledged-but-unsynced data on whole-machine failure. An fsync
// failure is fatal for the log: the kernel may have dropped the dirty
// pages the failed sync covered, so a later "successful" fsync proves
// nothing about them (the post-fsyncgate lesson) — the log refuses
// every further append until it is reopened and replayed.
//
// The decoder is fortress-grade in the repo's fuzz style: length- and
// CRC-checked frames, allocations bounded by input size, typed
// ErrCorrupt on any malformed byte, never a panic.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cinct/internal/atomicfile"
)

var (
	// ErrCorrupt reports a segment whose bytes do not decode to the
	// declared record shape. A corrupt non-final segment fails Open
	// (the log's history has a hole); a corrupt tail on the final
	// segment is truncated instead — indistinguishable from a torn
	// write, which is exactly what truncation exists for.
	ErrCorrupt = errors.New("wal: corrupt segment")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log closed")
)

// segMagic opens every segment file.
const segMagic = "CNCTwal1"

// recBatch is the only record type; the byte leaves room for future
// kinds (e.g. tombstones) without a format break.
const recBatch = 1

// maxRecordBytes bounds one record's payload — matching the serving
// layer's 64 MiB ingest-body cap — so a corrupt length field cannot
// drive a giant allocation.
const maxRecordBytes = 64 << 20

// frameBytes is the fixed frame header: u32 payload length, u32
// CRC-32C (Castagnoli) of the payload.
const frameBytes = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log. The zero value is a valid, conservative
// default.
type Options struct {
	// SyncInterval is the group-commit window: an fsync is scheduled
	// this long after the first unsynced append. 0 means 50ms;
	// negative disables the timer (fsync on byte threshold and Close
	// only).
	SyncInterval time.Duration
	// SyncBytes forces an immediate fsync once this many unsynced
	// bytes accumulate. 0 means 1 MiB; negative fsyncs every append.
	SyncBytes int
	// SegmentBytes rotates to a new segment file once the active one
	// exceeds this size, bounding the unit of retirement. 0 means
	// 64 MiB.
	SegmentBytes int64
}

func (o Options) syncInterval() time.Duration {
	if o.SyncInterval == 0 {
		return 50 * time.Millisecond
	}
	return o.SyncInterval
}

func (o Options) syncBytes() int {
	if o.SyncBytes == 0 {
		return 1 << 20
	}
	return o.SyncBytes
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 64 << 20
	}
	return o.SegmentBytes
}

// Batch is one logged append: the rows of one Writer.Append or
// AppendBatch call, with the global ID of the first row. Times is nil
// for spatial batches and row-aligned for temporal ones.
type Batch struct {
	FirstID int
	Trajs   [][]uint32
	Times   [][]int64
}

// lastID returns the global ID of the batch's final row.
func (b Batch) lastID() int { return b.FirstID + len(b.Trajs) - 1 }

// segment is one on-disk file of the log.
type segment struct {
	seq    uint64
	path   string
	size   int64
	lastID int // highest global ID logged in the segment; -1 when empty
}

var segName = regexp.MustCompile(`^wal-(\d{8,16})\.seg$`)

// Log is an append-only, CRC-framed record log over numbered segment
// files in one directory. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	active    segment
	retired   []segment // older, closed segments (oldest first)
	pending   []Batch   // replayed on Open, consumed once via Pending
	truncated int64     // torn-tail bytes dropped during Open
	unsynced  int
	timer     *time.Timer
	syncErr   error // permanently sticky: a failed fsync poisons the log until reopen
	closed    bool

	// fsyncs counts successful segment fsyncs over the log's lifetime —
	// the group-commit rate the serving layer's metrics expose.
	fsyncs atomic.Int64
}

// Open creates or recovers the log in dir (created if missing).
// Every intact record across all segments is decoded into the
// replay set returned by Pending; a torn or corrupt tail on the final
// segment is truncated (see Truncated), while corruption in an
// earlier segment fails with ErrCorrupt. Appending resumes at the end
// of the final segment.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, f := range files {
		m := segName.FindStringSubmatch(f.Name())
		if f.IsDir() || m == nil {
			continue
		}
		var seq uint64
		fmt.Sscanf(m[1], "%d", &seq) //nolint:errcheck // digits-only by construction
		segs = append(segs, segment{seq: seq, path: filepath.Join(dir, f.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	l := &Log{dir: dir, opts: opts}
	for i := range segs {
		final := i == len(segs)-1
		batches, good, rerr := readSegmentFile(segs[i].path)
		if rerr != nil && !final {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(segs[i].path), rerr)
		}
		segs[i].size = good
		segs[i].lastID = -1
		if n := len(batches); n > 0 {
			segs[i].lastID = batches[n-1].lastID()
		}
		l.pending = append(l.pending, batches...)
		if final && rerr != nil {
			// Torn tail: drop everything past the last whole record so
			// the segment is clean for appending. Records are framed,
			// so a partial write can only ever damage the tail.
			fi, serr := os.Stat(segs[i].path)
			if serr != nil {
				return nil, serr
			}
			if good == 0 && fi.Size() >= int64(len(segMagic)) {
				// The magic bytes are all present but wrong. A torn
				// write can only shorten the magic, never rewrite it, so
				// this is corruption — truncating would silently discard
				// every acknowledged record in the segment, and because
				// the loss is at the log's tail no replay gap check
				// could ever catch it. Refuse instead.
				return nil, fmt.Errorf("%w: %s: bad segment magic", ErrCorrupt, filepath.Base(segs[i].path))
			}
			l.truncated = fi.Size() - good
			if terr := os.Truncate(segs[i].path, good); terr != nil {
				return nil, terr
			}
		}
	}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.retired = segs[:len(segs)-1]
	l.active = segs[len(segs)-1]
	f, err := os.OpenFile(l.active.path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(l.active.size, 0); err != nil {
		f.Close()
		return nil, err
	}
	if l.active.size < int64(len(segMagic)) {
		// The final segment's own magic was torn (truncated to zero
		// above): re-stamp it so the segment is valid going forward.
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return nil, err
		}
		l.active.size = int64(len(segMagic))
	}
	l.f = f
	return l, nil
}

// openSegment creates segment seq and makes it active. Caller holds
// mu (or owns the log exclusively, as in Open). The directory entry is
// fsynced so a record synced into the new segment cannot be lost to a
// power failure that forgets the file itself.
func (l *Log) openSegment(seq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%08d.seg", seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := atomicfile.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.active = segment{seq: seq, path: path, size: int64(len(segMagic)), lastID: -1}
	return nil
}

// Pending returns the batches replayed during Open, oldest first, and
// releases them; later calls return nil. The engine feeds these into
// the delta (skipping rows the persisted index already holds) before
// serving.
func (l *Log) Pending() []Batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.pending
	l.pending = nil
	return p
}

// Truncated returns the number of torn-tail bytes dropped during
// Open — zero after a clean shutdown; worth logging when not.
func (l *Log) Truncated() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Append logs one batch. The record's write(2) completes before
// Append returns — an acknowledged batch survives process death —
// and fsync follows per the configured batching policy. A sync
// failure is fatal: it surfaces on this and every later call until
// the log is reopened (and its surviving records replayed).
func (l *Log) Append(b Batch) error {
	if len(b.Trajs) == 0 {
		return nil
	}
	if b.Times != nil && len(b.Times) != len(b.Trajs) {
		return fmt.Errorf("wal: %d timestamp columns for %d trajectories", len(b.Times), len(b.Trajs))
	}
	rec, err := encodeRecord(b)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	if l.active.size > int64(len(segMagic)) && l.active.size+int64(len(rec)) > l.opts.segmentBytes() {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	l.active.size += int64(len(rec))
	if id := b.lastID(); id > l.active.lastID {
		l.active.lastID = id
	}
	l.unsynced += len(rec)
	if sb := l.opts.syncBytes(); sb < 0 || l.unsynced >= sb {
		return l.syncLocked()
	}
	if l.timer == nil && l.opts.syncInterval() > 0 {
		l.timer = time.AfterFunc(l.opts.syncInterval(), l.timedSync)
	}
	return nil
}

// rotateLocked closes the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.retired = append(l.retired, l.active)
	return l.openSegment(l.active.seq + 1)
}

// timedSync is the group-commit timer callback.
func (l *Log) timedSync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.timer = nil
	if l.closed || l.unsynced == 0 {
		return
	}
	l.syncLocked() //nolint:errcheck // sticky in syncErr; surfaced on the next call
}

// syncLocked fsyncs the active segment. Caller holds mu. A failure is
// permanently sticky: the kernel may have evicted the dirty pages the
// failed fsync covered, so a later fsync succeeding would not make the
// records written before the failure durable — the log must not
// resume claiming durability it may have lost.
func (l *Log) syncLocked() error {
	if l.syncErr != nil {
		return l.syncErr
	}
	if err := l.f.Sync(); err != nil {
		l.syncErr = err
		return err
	}
	l.fsyncs.Add(1)
	l.unsynced = 0
	return nil
}

// Sync forces an immediate fsync of the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Retire deletes every segment whose rows all have global IDs below
// sealedRows — they are durable in the persisted index file, so the
// log no longer needs them. The active segment rotates first if it
// too is fully covered, keeping steady-state disk usage at one mostly
// empty segment once ingestion pauses and seals catch up.
func (l *Log) Retire(sealedRows int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active.lastID >= 0 && l.active.lastID < sealedRows {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	var kept []segment
	var firstErr error
	for _, s := range l.retired {
		if firstErr == nil && s.lastID < sealedRows {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				firstErr = err
				kept = append(kept, s)
			}
			continue
		}
		kept = append(kept, s)
	}
	l.retired = kept
	return firstErr
}

// Stats reports the log's current footprint: live segment files and
// their total bytes.
func (l *Log) Stats() (segments int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segments = len(l.retired) + 1
	bytes = l.active.size
	for _, s := range l.retired {
		bytes += s.size
	}
	return segments, bytes
}

// Fsyncs returns the number of successful segment fsyncs the log has
// performed since Open.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }

// Close syncs and closes the log. Further calls fail with ErrClosed.
// A sticky sync failure is reported instead of attempting (and
// possibly "succeeding" at) a final fsync that proves nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	err := l.syncErr
	if err == nil {
		if err = l.f.Sync(); err == nil {
			l.fsyncs.Add(1)
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeRecord frames one batch: u32 payload length, u32 CRC-32C,
// then the payload (type byte, firstID, row count, a times flag, and
// per row the edge IDs as uvarints plus — for temporal batches — the
// timestamps as zig-zag deltas, the same coding the tempo store
// uses).
func encodeRecord(b Batch) ([]byte, error) {
	if b.FirstID < 0 {
		return nil, fmt.Errorf("wal: negative first ID %d", b.FirstID)
	}
	payload := make([]byte, frameBytes, frameBytes+64*len(b.Trajs))
	payload = append(payload, recBatch)
	payload = binary.AppendUvarint(payload, uint64(b.FirstID))
	payload = binary.AppendUvarint(payload, uint64(len(b.Trajs)))
	hasTimes := byte(0)
	if b.Times != nil {
		hasTimes = 1
	}
	payload = append(payload, hasTimes)
	for k, tr := range b.Trajs {
		payload = binary.AppendUvarint(payload, uint64(len(tr)))
		for _, e := range tr {
			payload = binary.AppendUvarint(payload, uint64(e))
		}
		if hasTimes == 1 {
			col := b.Times[k]
			if len(col) != len(tr) {
				return nil, fmt.Errorf("wal: row %d has %d edges but %d timestamps", k, len(tr), len(col))
			}
			prev := int64(0)
			for _, t := range col {
				payload = binary.AppendVarint(payload, t-prev)
				prev = t
			}
		}
	}
	body := payload[frameBytes:]
	if len(body) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(body), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(payload[4:8], crc32.Checksum(body, crcTable))
	return payload, nil
}

// readSegmentFile reads and decodes one segment, returning its intact
// batches and the byte offset just past the last whole record. A
// non-nil error means the bytes from good onward are damaged (torn or
// corrupt); the batches before that point are still returned.
func readSegmentFile(path string) (batches []Batch, good int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return readSegment(data)
}

// readSegment is the segment decoder (and the fuzz target): it never
// panics, allocates proportionally to its input, and reports the
// offset of the first damaged byte alongside everything decoded
// before it.
func readSegment(data []byte) (batches []Batch, good int64, err error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	pos := int64(len(segMagic))
	for int64(len(data))-pos >= frameBytes {
		n := int64(binary.LittleEndian.Uint32(data[pos : pos+4]))
		sum := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if n > maxRecordBytes {
			return batches, pos, fmt.Errorf("%w: record length %d exceeds cap", ErrCorrupt, n)
		}
		if pos+frameBytes+n > int64(len(data)) {
			return batches, pos, fmt.Errorf("%w: truncated record", ErrCorrupt)
		}
		body := data[pos+frameBytes : pos+frameBytes+n]
		if crc32.Checksum(body, crcTable) != sum {
			return batches, pos, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
		}
		b, derr := decodeBatch(body)
		if derr != nil {
			return batches, pos, derr
		}
		batches = append(batches, b)
		pos += frameBytes + n
	}
	if pos != int64(len(data)) {
		return batches, pos, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
	}
	return batches, pos, nil
}

// decodeBatch decodes one CRC-validated payload. Row and edge counts
// are cross-checked against the remaining input before each
// allocation (every row and every edge costs at least one payload
// byte), so a hostile header cannot oversize a make.
func decodeBatch(body []byte) (Batch, error) {
	corrupt := func(what string) (Batch, error) {
		return Batch{}, fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	if len(body) == 0 || body[0] != recBatch {
		return corrupt("unknown record type")
	}
	p := body[1:]
	firstID, n := binary.Uvarint(p)
	if n <= 0 || firstID > 1<<40 {
		return corrupt("bad first ID")
	}
	p = p[n:]
	rows, n := binary.Uvarint(p)
	if n <= 0 {
		return corrupt("bad row count")
	}
	p = p[n:]
	if len(p) == 0 {
		return corrupt("missing times flag")
	}
	hasTimes := p[0]
	if hasTimes > 1 {
		return corrupt("bad times flag")
	}
	p = p[1:]
	if rows > uint64(len(p)) {
		return corrupt("row count exceeds payload")
	}
	b := Batch{FirstID: int(firstID), Trajs: make([][]uint32, rows)}
	if hasTimes == 1 {
		b.Times = make([][]int64, rows)
	}
	for k := range b.Trajs {
		edges, n := binary.Uvarint(p)
		if n <= 0 {
			return corrupt("bad edge count")
		}
		p = p[n:]
		if edges == 0 || edges > uint64(len(p)) {
			return corrupt("edge count exceeds payload")
		}
		tr := make([]uint32, edges)
		for i := range tr {
			e, n := binary.Uvarint(p)
			if n <= 0 || e > 1<<32-1 {
				return corrupt("bad edge ID")
			}
			tr[i] = uint32(e)
			p = p[n:]
		}
		b.Trajs[k] = tr
		if hasTimes == 1 {
			col := make([]int64, edges)
			prev := int64(0)
			for i := range col {
				d, n := binary.Varint(p)
				if n <= 0 {
					return corrupt("bad timestamp delta")
				}
				prev += d
				col[i] = prev
				p = p[n:]
			}
			b.Times[k] = col
		}
	}
	if len(p) != 0 {
		return corrupt("trailing payload bytes")
	}
	return b, nil
}
