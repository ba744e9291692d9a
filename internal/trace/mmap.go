package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Zero-copy binary trace ingest. A BETR file on disk is already the
// byte stream the binary parser wants, so for regular files the
// buffered-reader layer (fillBuf's read-compact-refill copies) is pure
// overhead: memChunkReader decodes kind bytes and address varints
// directly from a memory-mapped view of the file. The kernel pages the
// trace in on demand and the page cache is shared across processes, so
// opening a multi-GB trace costs no read() traffic up front and no
// userspace copy at all. Platforms without mmap (and callers handing
// in their own buffers) use the same decoder over a read-into-memory
// fallback; pipes and FIFOs keep the streaming fillBuf path.

// errMmapUnsupported is returned by mapFile on platforms without an
// mmap implementation; OpenMmap then falls back to reading the file.
var errMmapUnsupported = errors.New("trace: mmap not supported on this platform")

// memChunkReader streams the binary trace format out of an in-memory
// byte slice — an mmap'd file view or a fully read buffer. It is the
// zero-copy counterpart of binaryChunkReader: same header handling,
// same chunk granularity, same error positions, no intermediate
// buffering layer.
type memChunkReader struct {
	data      []byte
	pos       int
	file      string
	name      string
	width     int
	total     uint64
	remaining uint64
	prev      uint64
	pool      *ChunkPool
	chunks    int
	mapped    bool // view is an mmap, not a heap buffer (for tests/metrics)
	err       error
	// stop, when nonzero, is an entry index no chunk may cross: a chunk
	// ends at it exactly when it would otherwise straddle it
	// (CutReader's cut alignment).
	stop uint64
}

// NewMemReader returns a streaming reader decoding a binary-format
// trace directly from data, which must start with the "BETR" magic.
// The header is parsed eagerly (Name, Width, EntryCount valid on
// return). data is aliased, not copied: it must stay valid and
// unmodified until the reader is done. file positions errors and may
// be empty; a nil pool selects the shared default pool.
func NewMemReader(data []byte, file string, pool *ChunkPool) (ChunkReader, error) {
	return newMemReader(data, file, pool, false)
}

func newMemReader(data []byte, file string, pool *ChunkPool, mapped bool) (*memChunkReader, error) {
	m := &memChunkReader{data: data, file: file, pool: orDefaultPool(pool), mapped: mapped}
	if err := m.readHeader(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *memChunkReader) ctx(format string, args ...any) error {
	if m.file != "" {
		return fmt.Errorf("trace: %s: %s", m.file, fmt.Sprintf(format, args...))
	}
	return fmt.Errorf("trace: %s", fmt.Sprintf(format, args...))
}

// uvarint decodes one unsigned varint at m.pos, advancing it.
func (m *memChunkReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(m.data[m.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, errVarintOverflow
	}
	m.pos += n
	return x, nil
}

func (m *memChunkReader) readHeader() error {
	if len(m.data) < len(binMagic) {
		return m.ctx("reading magic: %v", io.ErrUnexpectedEOF)
	}
	if string(m.data[:len(binMagic)]) != binMagic {
		return m.ctx("bad magic %q", m.data[:len(binMagic)])
	}
	m.pos = len(binMagic)
	if m.pos+2 > len(m.data) {
		return m.ctx("reading version: %v", io.ErrUnexpectedEOF)
	}
	ver := m.data[m.pos]
	if ver != 1 {
		return m.ctx("unsupported version %d", ver)
	}
	m.width = int(m.data[m.pos+1])
	m.pos += 2
	nameLen, err := m.uvarint()
	if err != nil {
		return m.ctx("reading name length: %v", err)
	}
	if nameLen > 1<<20 {
		return m.ctx("unreasonable name length %d", nameLen)
	}
	if uint64(len(m.data)-m.pos) < nameLen {
		return m.ctx("reading name: %v", io.ErrUnexpectedEOF)
	}
	m.name = string(m.data[m.pos : m.pos+int(nameLen)])
	m.pos += int(nameLen)
	count, err := m.uvarint()
	if err != nil {
		return m.ctx("reading entry count: %v", err)
	}
	m.total = count
	m.remaining = count
	return nil
}

func (m *memChunkReader) Name() string { return m.name }
func (m *memChunkReader) Width() int   { return m.width }

// EntryCount reports the header-declared entry count (entryCounter).
func (m *memChunkReader) EntryCount() (uint64, bool) { return m.total, true }

// maxEntries bounds the entries the rest of the view can hold: every
// record is at least a kind byte and one varint byte (entryBounder).
func (m *memChunkReader) maxEntries() uint64 { return uint64(len(m.data)-m.pos) / 2 }

func (m *memChunkReader) Next() (*Chunk, error) {
	ch, err := observeNext(m.err != nil, m.name, m.chunks, m.next)
	if err == nil {
		m.chunks++
	}
	return ch, err
}

func (m *memChunkReader) next() (*Chunk, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.remaining == 0 {
		m.err = io.EOF
		return nil, io.EOF
	}
	ch := m.pool.Get()
	n := uint64(m.pool.Cap())
	if n > m.remaining {
		n = m.remaining
	}
	entry := m.total - m.remaining
	if m.stop > entry && m.stop-entry < n {
		n = m.stop - entry
	}
	data := m.data
	pos := m.pos
	prev := m.prev
	for i := uint64(0); i < n; i++ {
		if pos >= len(data) {
			ch.Release()
			m.err = m.ctx("entry %d: %v", entry+i, io.ErrUnexpectedEOF)
			return nil, m.err
		}
		kb := data[pos]
		pos++
		if kb > byte(DataWrite) {
			ch.Release()
			m.err = m.ctx("entry %d: bad kind %d", entry+i, kb)
			return nil, m.err
		}
		ux, sz := binary.Uvarint(data[pos:])
		if sz <= 0 {
			ch.Release()
			if sz == 0 {
				m.err = m.ctx("entry %d: %v", entry+i, io.ErrUnexpectedEOF)
			} else {
				m.err = m.ctx("entry %d: %v", entry+i, errVarintOverflow)
			}
			return nil, m.err
		}
		pos += sz
		delta := int64(ux >> 1)
		if ux&1 != 0 {
			delta = ^delta
		}
		prev += uint64(delta)
		ch.append(prev, Kind(kb))
	}
	m.pos = pos
	m.prev = prev
	m.remaining -= n
	return ch, nil
}

// mappedCloser tears down an OpenMmap view: unmap (when mapped) then
// close the file. Closing while chunks from the reader are still being
// consumed is a use-after-unmap on the mapped variant — callers keep
// the OpenFile contract of closing only when done reading.
type mappedCloser struct {
	data  []byte
	unmap bool
	f     *os.File
}

func (c *mappedCloser) Close() error {
	var err error
	if c.unmap && c.data != nil {
		err = unmapFile(c.data)
		metrics().mmapBytes.Add(-int64(len(c.data)))
		c.data = nil
	}
	if c.f != nil {
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		c.f = nil
	}
	return err
}

// OpenMmap opens a binary-format trace file through the zero-copy
// in-memory decoder: the file is memory-mapped where the platform
// supports it and read fully into memory otherwise (the portable
// fallback — same decoder, heap-backed view). The file must be a
// regular file holding a BETR trace; use OpenFile for pipes, FIFOs or
// format sniffing. The returned Closer unmaps and closes the file and
// must be called only after the last chunk has been consumed.
func OpenMmap(path string, pool *ChunkPool) (ChunkReader, io.Closer, error) {
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
		return nil, nil, fmt.Errorf("trace: %s: not a regular file; use OpenFile for streaming input", path)
	}
	if data, err := mapFile(f, st.Size()); err == nil {
		mr, err := newMemReader(data, path, pool, true)
		if err != nil {
			unmapFile(data)
			f.Close()
			return nil, nil, err
		}
		recordMmapOpen(int64(len(data)), false)
		return mr, &mappedCloser{data: data, unmap: true, f: f}, nil
	}
	// mmap failed (unsupported platform, empty file, exotic fs): read
	// the whole file and decode from the heap buffer. The file can be
	// closed right away — the buffer owns the bytes now.
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	mr, err := newMemReader(data, path, pool, false)
	if err != nil {
		return nil, nil, err
	}
	recordMmapOpen(int64(len(data)), true)
	return mr, &mappedCloser{}, nil
}
