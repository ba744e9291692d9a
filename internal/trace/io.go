package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Text format: a human-readable trace file.
//
//	# busenc trace v1
//	# name: <name>
//	# width: <bits>
//	I 00400000
//	R 10008fa0
//	W 10008fa4
//
// Lines starting with '#' are comments; each entry line is "<kind> <hex>".
// The "name:" and "width:" metadata comments apply from the point they
// appear; WriteText always emits them before the first entry. Width
// defaults to 32, and an entry whose address does not fit in the
// declared width is a parse error (it would otherwise be silently
// truncated by every codec's payload mask).
//
// Parsing is served by the streaming reader in streamio.go: ReadText is
// a convenience that materializes the whole trace; use OpenText (or
// OpenFile) to iterate pooled chunks in bounded memory.

// WriteText writes the stream in the text trace format.
func WriteText(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# busenc trace v1\n# name: %s\n# width: %d\n", s.Name, s.Width)
	for _, e := range s.Entries {
		fmt.Fprintf(bw, "%s %x\n", e.Kind, e.Addr)
	}
	return bw.Flush()
}

// ReadText parses a text trace, materializing it fully. Errors carry
// the 1-based line number; use ReadTextNamed to include the filename.
func ReadText(r io.Reader) (*Stream, error) { return ReadTextNamed(r, "") }

// ReadTextNamed is ReadText with a filename for error positions
// ("trace: file.txt:17: ...").
func ReadTextNamed(r io.Reader, file string) (*Stream, error) {
	cr, err := OpenText(r, file, nil)
	if err != nil {
		return nil, err
	}
	return ReadAll(cr)
}

// Binary format: a compact delta-encoded trace.
//
// Header layout (all multi-byte integers are unsigned LEB128 varints as
// produced by encoding/binary.PutUvarint):
//
//	offset  field
//	0       magic "BETR" (4 bytes)
//	4       version (u8; currently 1)
//	5       width (u8; significant address bits, 1..64)
//	6       nameLen (uvarint) followed by nameLen bytes of stream name
//	...     count (uvarint): number of entries that follow
//
// Each entry is then one byte of Kind (0=I, 1=R, 2=W) followed by the
// signed zig-zag varint delta of the address relative to the previous
// entry's address (the implicit address before the first entry is 0).
// Delta coding makes sequential traces extremely small: an in-sequence
// run costs two bytes per reference.
//
// The count field lets readers preallocate and detect truncation; it
// also means WriteBinary needs the whole stream up front. Streaming
// reads never need the whole trace: OpenBinary decodes pooled chunks.

const binMagic = "BETR"

// WriteBinary writes the stream in the compact binary trace format.
func WriteBinary(w io.Writer, s *Stream) error {
	return WriteBinaryChunks(w, s.Name, s.Width, uint64(len(s.Entries)), s.Chunks(0))
}

// WriteBinaryChunks writes a binary trace whose entries stream out of
// r, which must yield exactly count entries (the header declares the
// count up front, so a streaming producer has to know it — for text
// input, from a counting pass). Memory stays at one chunk.
func WriteBinaryChunks(w io.Writer, name string, width int, count uint64, r ChunkReader) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	bw.WriteByte(1)
	bw.WriteByte(byte(width))
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(name)))
	bw.Write(buf[:n])
	bw.WriteString(name)
	n = binary.PutUvarint(buf[:], count)
	bw.Write(buf[:n])
	prev := uint64(0)
	written, err := Copy(r, func(ch *Chunk) error {
		for i, a := range ch.Addrs {
			bw.WriteByte(byte(ch.Kinds[i]))
			n := binary.PutVarint(buf[:], int64(a-prev))
			bw.Write(buf[:n])
			prev = a
		}
		return nil
	})
	if err != nil {
		return err
	}
	if uint64(written) != count {
		return fmt.Errorf("trace: wrote %d entries under a header declaring %d", written, count)
	}
	return bw.Flush()
}

// ReadBinary parses a binary trace, materializing it fully. Use
// OpenBinary (or OpenFile) to iterate pooled chunks in bounded memory.
func ReadBinary(r io.Reader) (*Stream, error) { return ReadBinaryNamed(r, "") }

// ReadBinaryNamed is ReadBinary with a filename for error positions.
func ReadBinaryNamed(r io.Reader, file string) (*Stream, error) {
	cr, err := OpenBinary(r, file, nil)
	if err != nil {
		return nil, err
	}
	return ReadAll(cr)
}
