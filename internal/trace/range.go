package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
)

// Shard planning over a BETR byte view. The binary format is a varint
// delta chain — entry k's address is recoverable only from entry k-1's
// — so a byte range of the file is decodable on its own exactly when it
// comes with the address the chain held at its left edge. RangeCut
// captures that: the byte offset where an entry's record starts plus
// the two preceding entries (the first so the delta chain can continue,
// both so shard pricing can rebuild its encoder/decoder boundary, see
// codec.Boundary). IndexBETR produces the cuts with one cheap scan —
// no entries are materialized, no shard files are written — CutReader
// produces the same cuts while streaming the entries to a consumer,
// and NewMemRangeReader turns a cut back into a streaming reader over
// the same mapping. The distributed sweep (internal/dist) plans with
// CutReader in the coordinator and decodes with NewMemRangeReader in
// the workers; both sides share the kernel page cache, so a shard is
// never copied.

// RangeCut locates one shard boundary inside a BETR payload.
type RangeCut struct {
	// Entry is the global index of the first entry at or after the cut.
	Entry int64 `json:"entry"`
	// Off is the byte offset of that entry's record (its kind byte) in
	// the file. For the end-of-stream sentinel it is the payload end.
	Off int64 `json:"off"`
	// PrevAddr and PrevKind describe entry Entry-1 (valid when
	// Entry >= 1): the delta base for decoding and the boundary entry a
	// shard re-encodes to prime its bus.
	PrevAddr uint64 `json:"prev_addr"`
	PrevKind Kind   `json:"prev_kind"`
	// Prev2Addr and Prev2Kind describe entry Entry-2 (valid when
	// Entry >= 2): the seed symbol for previous-symbol codecs.
	Prev2Addr uint64 `json:"prev2_addr"`
	Prev2Kind Kind   `json:"prev2_kind"`
}

// BETRIndex is the product of one planning scan: the header metadata
// plus parts+1 cuts — cuts[k] is entry k*Total/parts, cuts[parts] the
// end-of-stream sentinel — so shard k is entries
// [Cuts[k].Entry, Cuts[k+1].Entry) decoded from byte Cuts[k].Off.
type BETRIndex struct {
	Name  string     `json:"name"`
	Width int        `json:"width"`
	Total int64      `json:"total"`
	Cuts  []RangeCut `json:"cuts"`
}

// IndexBETR scans a BETR byte view (an mmap'd file or an in-memory
// buffer) and plans parts contiguous shards with sizes as equal as
// possible (the same k*n/p cut policy as codec.RunParallel). Errors are
// positioned like the streaming reader's; file may be empty. It is the
// whole-view reference planner; CutReader plans the same cuts while
// streaming the entries to a consumer.
func IndexBETR(data []byte, file string, parts int) (*BETRIndex, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("trace: plan of %d parts", parts)
	}
	m, err := newMemReader(data, file, nil, false)
	if err != nil {
		return nil, err
	}
	total := m.total
	idx := &BETRIndex{Name: m.name, Width: m.width, Total: int64(total), Cuts: make([]RangeCut, 0, parts+1)}
	var prevAddr, prev2Addr uint64
	var prevKind, prev2Kind Kind
	pos := int64(m.pos)
	addr := uint64(0)
	k := 0
	for e := uint64(0); ; e++ {
		// Repeated targets yield empty shards when parts exceeds the
		// entry count.
		for k <= parts && cutEntry(k, parts, total) == e {
			idx.Cuts = append(idx.Cuts, RangeCut{Entry: int64(e), Off: pos,
				PrevAddr: prevAddr, PrevKind: prevKind,
				Prev2Addr: prev2Addr, Prev2Kind: prev2Kind})
			k++
		}
		if e == total {
			break
		}
		if pos >= int64(len(data)) {
			return nil, m.ctx("entry %d: %v", e, io.ErrUnexpectedEOF)
		}
		kb := data[pos]
		if kb > byte(DataWrite) {
			return nil, m.ctx("entry %d: bad kind %d", e, kb)
		}
		ux, sz := binary.Uvarint(data[pos+1:])
		if sz <= 0 {
			if sz == 0 {
				return nil, m.ctx("entry %d: %v", e, io.ErrUnexpectedEOF)
			}
			return nil, m.ctx("entry %d: %v", e, errVarintOverflow)
		}
		delta := int64(ux >> 1)
		if ux&1 != 0 {
			delta = ^delta
		}
		addr += uint64(delta)
		pos += 1 + int64(sz)
		prev2Addr, prev2Kind = prevAddr, prevKind
		prevAddr, prevKind = addr, Kind(kb)
	}
	return idx, nil
}

// cutEntry is the k*total/parts cut policy, computed in 128 bits so a
// header's entry count cannot overflow it (k <= parts keeps the
// quotient within 64 bits).
func cutEntry(k, parts int, total uint64) uint64 {
	hi, lo := bits.Mul64(uint64(k), total)
	q, _ := bits.Div64(hi, lo, uint64(parts))
	return q
}

// CutReader is IndexBETR in streamed form: a ChunkReader over a whole
// BETR view that plans the same cuts while it decodes. Cut k's entry
// index (Target) follows from the header alone; the RangeCut itself —
// byte offset and boundary entries — is known the moment the scan
// passes it, because no chunk straddles a cut: a chunk that reaches a
// cut ends on its boundary entry. A consumer can act on shard k
// (dispatch it, snapshot encoder state at its boundary) while the rest
// of the view is still unread. Errors are IndexBETR's, positioned
// identically; FuzzPlanScan holds the two planners equal.
type CutReader struct {
	m     *memChunkReader
	parts int
	cuts  []RangeCut

	prevAddr, prev2Addr uint64
	prevKind, prev2Kind Kind
}

// NewCutReader parses the header of a BETR view and positions the scan
// at entry 0, with every cut at entry 0 already passed. data is
// aliased, not copied; a nil pool selects the shared default pool.
func NewCutReader(data []byte, file string, parts int, pool *ChunkPool) (*CutReader, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("trace: plan of %d parts", parts)
	}
	m, err := newMemReader(data, file, pool, false)
	if err != nil {
		return nil, err
	}
	r := &CutReader{m: m, parts: parts, cuts: make([]RangeCut, 0, parts+1)}
	r.pass()
	return r, nil
}

func (r *CutReader) Name() string { return r.m.name }
func (r *CutReader) Width() int   { return r.m.width }

// Total is the header-declared entry count.
func (r *CutReader) Total() int64 { return int64(r.m.total) }

// Target is the entry index of cut k (0 <= k <= parts): cut parts is
// the end-of-stream sentinel.
func (r *CutReader) Target(k int) int64 { return int64(cutEntry(k, r.parts, r.m.total)) }

// Cuts returns the cuts passed so far, in order; after Next has
// returned io.EOF it is the full parts+1 slice IndexBETR returns. The
// slice is appended to by later Next calls.
func (r *CutReader) Cuts() []RangeCut { return r.cuts }

// Next returns the next chunk, ending no later than the next cut.
func (r *CutReader) Next() (*Chunk, error) {
	ch, err := r.m.Next()
	if err != nil {
		return nil, err
	}
	n := ch.Len()
	if n >= 2 {
		r.prev2Addr, r.prev2Kind = ch.Addrs[n-2], ch.Kinds[n-2]
	} else {
		r.prev2Addr, r.prev2Kind = r.prevAddr, r.prevKind
	}
	r.prevAddr, r.prevKind = ch.Addrs[n-1], ch.Kinds[n-1]
	r.pass()
	return ch, nil
}

// pass records every cut at the current scan position and bounds the
// next chunk at the first cut beyond it.
func (r *CutReader) pass() {
	m := r.m
	e := m.total - m.remaining
	for len(r.cuts) <= r.parts && cutEntry(len(r.cuts), r.parts, m.total) == e {
		r.cuts = append(r.cuts, RangeCut{Entry: int64(e), Off: int64(m.pos),
			PrevAddr: r.prevAddr, PrevKind: r.prevKind,
			Prev2Addr: r.prev2Addr, Prev2Kind: r.prev2Kind})
	}
	if len(r.cuts) <= r.parts {
		m.stop = cutEntry(len(r.cuts), r.parts, m.total)
	}
}

// NewMemRangeReader returns a streaming reader over n entries of a BETR
// byte view starting at cut (as planned by IndexBETR or CutReader over
// the same view). name and width come from the plan; data is aliased,
// not copied, and must stay valid until the reader is done.
func NewMemRangeReader(data []byte, name string, width int, cut RangeCut, n int64, file string, pool *ChunkPool) (ChunkReader, error) {
	if cut.Off < 0 || cut.Off > int64(len(data)) {
		return nil, fmt.Errorf("trace: range cut at byte %d of a %d-byte view", cut.Off, len(data))
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: range of %d entries", n)
	}
	return &memChunkReader{
		data:      data,
		pos:       int(cut.Off),
		file:      file,
		name:      name,
		width:     width,
		total:     uint64(n),
		remaining: uint64(n),
		prev:      cut.PrevAddr,
		pool:      orDefaultPool(pool),
	}, nil
}

// MapBytes opens a regular file as a read-only byte view: memory-mapped
// where the platform supports it, read fully into memory otherwise.
// The Closer unmaps and closes the file and must be called only after
// the view is no longer referenced. It is the raw-bytes sibling of
// OpenMmap for callers — like the shard planner — that need the view
// itself, not a decoder over it.
func MapBytes(path string) ([]byte, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if !st.Mode().IsRegular() {
		f.Close()
		return nil, nil, fmt.Errorf("trace: %s: not a regular file", path)
	}
	if data, err := mapFile(f, st.Size()); err == nil {
		recordMmapOpen(int64(len(data)), false)
		return data, &mappedCloser{data: data, unmap: true, f: f}, nil
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	recordMmapOpen(int64(len(data)), true)
	return data, &mappedCloser{}, nil
}
