package trace

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func randomStream(n int, seed int64) *Stream {
	rng := rand.New(rand.NewSource(seed))
	s := New("rand", 32)
	for i := 0; i < n; i++ {
		s.Append(rng.Uint64()&0xFFFFFFFF, Kind(rng.Intn(3)))
	}
	return s
}

func streamsEqual(a, b *Stream) bool {
	if a.Name != b.Name || a.Width != b.Width || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	s := randomStream(500, 1)
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s, got) {
		t.Error("text round trip mismatch")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := randomStream(500, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !streamsEqual(s, got) {
		t.Error("binary round trip mismatch")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	s := New("empty", 24)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "empty" || got.Width != 24 || got.Len() != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestBinaryCompactOnSequential(t *testing.T) {
	s := New("seq", 32)
	for i := 0; i < 1000; i++ {
		s.Append(0x400000+uint64(i)*4, Instr)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	// Delta coding means ~2 bytes per sequential entry.
	if buf.Len() > 3*1000 {
		t.Errorf("sequential trace encoded in %d bytes; delta coding broken?", buf.Len())
	}
}

func TestReadTextParsesMetadata(t *testing.T) {
	in := "# busenc trace v1\n# name: hello\n# width: 24\nI 400000\nR ff\n\nW 10\n"
	s, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "hello" || s.Width != 24 {
		t.Errorf("metadata: name=%q width=%d", s.Name, s.Width)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Entries[0] != (Entry{0x400000, Instr}) ||
		s.Entries[1] != (Entry{0xff, DataRead}) ||
		s.Entries[2] != (Entry{0x10, DataWrite}) {
		t.Errorf("entries: %+v", s.Entries)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"I\n",                                // missing address
		"X 400000\n",                         // unknown kind
		"I zzz\n",                            // bad hex
		"# width: x\n",                       // bad width
		"# width: 65\n",                      // width beyond 64 lines
		"I 1 2 3\n",                          // too many fields
		"# width: 16\nI 400000\n",            // entry exceeds declared width
		"I 10000000000000000\n",              // overflows 64 bits
		"# width: 64\nI 1ffffffffffffffff\n", // overflows even at full width
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", in)
		}
	}
}

// TestReadTextErrorPositions pins the satellite contract: every parse
// error carries the filename (when known) and the 1-based line number.
func TestReadTextErrorPositions(t *testing.T) {
	in := "# name: x\nI 400000\nQ 1234\n"
	_, err := ReadTextNamed(strings.NewReader(in), "prog.trace")
	if err == nil {
		t.Fatal("bad kind accepted")
	}
	if !strings.Contains(err.Error(), "prog.trace:3:") {
		t.Errorf("error %q does not carry file:line position", err)
	}
	_, err = ReadText(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("anonymous reader error %q does not carry line number", err)
	}
	// Width rejection reports the position of the offending entry.
	in = "# width: 12\nI fff\nI 1000\n"
	_, err = ReadTextNamed(strings.NewReader(in), "w.trace")
	if err == nil || !strings.Contains(err.Error(), "w.trace:3:") || !strings.Contains(err.Error(), "width 12") {
		t.Errorf("width rejection error %q lacks position or width", err)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("BET"))); err == nil {
		t.Error("truncated magic accepted")
	}
	// Version 2 is unknown.
	if _, err := ReadBinary(bytes.NewReader([]byte{'B', 'E', 'T', 'R', 2, 32, 0, 0})); err == nil {
		t.Error("unknown version accepted")
	}
	// Truncated entry section.
	var buf bytes.Buffer
	s := randomStream(10, 3)
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestBinaryRejectsBadKind(t *testing.T) {
	// Handcraft: magic, v1, width 8, name "", count 1, kind 7, delta 0.
	raw := []byte{'B', 'E', 'T', 'R', 1, 8, 0, 1, 7, 0}
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Error("bad kind accepted")
	}
}

// TestReadAllLyingHeader: a header claiming far more entries than the
// bytes hold fails as truncated without preallocating for the claim —
// from a stream reader and from an in-memory view alike.
func TestReadAllLyingHeader(t *testing.T) {
	data := []byte{'B', 'E', 'T', 'R', 1, 4, 0, 0xde, 0xf4, 0xe7, 0x8d, 0x03, 0, 2, 1, 4}
	for name, read := range map[string]func() error{
		"stream": func() error { _, err := ReadBinary(bytes.NewReader(data)); return err },
		"mem": func() error {
			r, err := NewMemReader(data, "", nil)
			if err == nil {
				_, err = ReadAll(r)
			}
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated trace accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: reading a lying header allocated %d bytes", name, grew)
		}
	}
}
