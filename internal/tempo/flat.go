package tempo

import (
	"fmt"

	"cinct/internal/flat"
)

// Flat (v3) form, the only serialized one. It carries the derived
// structures (starts, checkpoints, summaries) beside the blob, so a
// view opens without touching the blob. ViewFlat validates the
// shape relations At indexes by in O(columns + checkpoints): every
// checkpoint and column start must land inside the blob, and the
// checkpoint table must be exactly contiguous. A blob whose *contents*
// were tampered with then decodes to wrong timestamps, but every
// access stays inside the mapping: At and Column advance their byte
// position only by what binary.Varint actually consumed, which never
// exceeds the slice it was handed.

// AppendFlat writes the store, derived structures included.
func (s *Store) AppendFlat(w *flat.Writer) {
	w.U8s(s.blob)
	w.I64s(s.starts)
	w.I32s(s.lens)
	w.I64s(s.ckTime)
	w.I64s(s.ckOff)
	w.I64s(s.ckStart)
	w.I64s(s.mins)
	w.I64s(s.maxs)
}

// ViewFlat wraps a flat store in place.
func ViewFlat(c *flat.Cursor) (*Store, error) {
	s := &Store{
		blob:    c.U8s(),
		starts:  c.I64s(),
		lens:    c.I32s(),
		ckTime:  c.I64s(),
		ckOff:   c.I64s(),
		ckStart: c.I64s(),
		mins:    c.I64s(),
		maxs:    c.I64s(),
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	nTraj := len(s.starts)
	nCk := len(s.ckTime)
	if len(s.lens) != nTraj || len(s.mins) != nTraj || len(s.maxs) != nTraj ||
		len(s.ckOff) != nCk || len(s.ckStart) != nTraj+1 {
		return nil, fmt.Errorf("%w: flat table lengths", ErrCorrupt)
	}
	if s.ckStart[0] != 0 || s.ckStart[nTraj] != int64(nCk) {
		return nil, fmt.Errorf("%w: checkpoint table spans [%d,%d) for %d checkpoints",
			ErrCorrupt, s.ckStart[0], s.ckStart[nTraj], nCk)
	}
	blobLen := int64(len(s.blob))
	for k := 0; k < nTraj; k++ {
		l := int64(s.lens[k])
		if l < 0 {
			return nil, fmt.Errorf("%w: negative length for column %d", ErrCorrupt, k)
		}
		end := blobLen
		if k+1 < nTraj {
			end = s.starts[k+1]
		}
		// Each entry is at least one varint byte, so the column's byte
		// range must hold at least l bytes.
		if s.starts[k] < 0 || s.starts[k] > end || end-s.starts[k] < l || end > blobLen {
			return nil, fmt.Errorf("%w: column %d spans [%d,%d) with %d entries in %d-byte blob",
				ErrCorrupt, k, s.starts[k], end, l, blobLen)
		}
		nBlocks := int64(0)
		if l > 0 {
			nBlocks = (l - 1) / BlockSize
		}
		if s.ckStart[k+1] != s.ckStart[k]+nBlocks {
			return nil, fmt.Errorf("%w: column %d has %d checkpoints, want %d",
				ErrCorrupt, k, s.ckStart[k+1]-s.ckStart[k], nBlocks)
		}
		for ck := s.ckStart[k]; ck < s.ckStart[k+1]; ck++ {
			// Compare by subtraction from blobLen (starts[k] <= blobLen is
			// already validated) so a huge ckOff cannot wrap the sum negative.
			if s.ckOff[ck] < 0 || s.ckOff[ck] > blobLen-s.starts[k] {
				return nil, fmt.Errorf("%w: column %d checkpoint %d offset %d",
					ErrCorrupt, k, ck-s.ckStart[k], s.ckOff[ck])
			}
		}
	}
	return s, nil
}
