package trace

import (
	"bytes"
	"io"
	"testing"
)

// Fuzz targets for the streaming trace parsers. The seed corpus covers
// the header grammar, each entry kind, metadata edge cases, and the
// known rejection paths; `go test` runs the seeds as regular tests and
// `go test -fuzz=FuzzReadText ./internal/trace` explores further.

func FuzzReadText(f *testing.F) {
	seeds := []string{
		"",
		"\n\n",
		"# busenc trace v1\n# name: prog\n# width: 32\nI 400000\nR 10008fa0\nW 10008fa4\n",
		"# width: 16\nI ffff\n",
		"# width: 16\nI 10000\n", // exceeds declared width
		"# width: 64\nI ffffffffffffffff\n",
		"# width: 65\n", // invalid width
		"# name: spaces in name\nI 0\n",
		"I 0\n# width: 8\nR ff\n", // metadata after entries
		"X 400000\n",
		"I zzz\n",
		"I 1 2 3\n",
		"I\n",
		"# comment with no colon\nI 4\n",
		"I 00000000000000000001\n", // long leading zeros
		"\tI\t400000\t\r\n",        // tabs and CR
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Width metadata applies from where it appears, so a comment
		// after the entries can legally narrow the declared width below
		// earlier addresses; such streams do not reparse and are out of
		// scope for the round-trip invariant.
		mask := widthMask(s.Width)
		for _, e := range s.Entries {
			if e.Addr&^mask != 0 {
				return
			}
		}
		// A successfully parsed trace must survive a write/reparse
		// round trip unchanged.
		var buf bytes.Buffer
		if err := WriteText(&buf, s); err != nil {
			t.Fatalf("WriteText of parsed stream: %v", err)
		}
		got, err := ReadText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written stream: %v", err)
		}
		if len(got.Entries) != len(s.Entries) {
			t.Fatalf("round trip changed length: %d -> %d", len(s.Entries), len(got.Entries))
		}
		for i := range s.Entries {
			if s.Entries[i] != got.Entries[i] {
				t.Fatalf("entry %d changed: %+v -> %+v", i, s.Entries[i], got.Entries[i])
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Well-formed seeds from the writer plus handcrafted corruptions.
	mk := func(n int, seed int64) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, randomStream(n, seed)); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	f.Add(mk(0, 1))
	f.Add(mk(1, 2))
	f.Add(mk(100, 3))
	f.Add([]byte("BETR"))
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 32, 0, 0})
	f.Add([]byte{'B', 'E', 'T', 'R', 2, 32, 0, 0})               // bad version
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0, 1, 7, 0})          // bad kind
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0xFF, 0xFF, 0xFF, 4}) // huge name length
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0, 3, 0, 2, 1, 4})    // truncated entries
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, s); err != nil {
			t.Fatalf("WriteBinary of parsed stream: %v", err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written stream: %v", err)
		}
		if !streamsEqual(s, got) {
			t.Fatal("binary round trip changed the stream")
		}
	})
}

// FuzzPlanScan is the differential oracle for the streamed shard
// planner: for arbitrary bytes and part counts, CutReader must plan
// exactly IndexBETR's cuts (header fields included), or both must fail
// with the same positioned error. Chunks must never straddle a cut.
func FuzzPlanScan(f *testing.F) {
	mk := func(n int, seed int64) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, randomStream(n, seed)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := mk(50, 4)
	f.Add(valid, uint8(3))
	f.Add(valid, uint8(64))
	f.Add(valid[:len(valid)-1], uint8(2))
	f.Add(valid[:len(valid)/2], uint8(7))
	f.Add(mk(0, 1), uint8(4))
	f.Add(mk(3, 2), uint8(9))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0, 1, 7, 0}, uint8(2))                            // bad kind
	f.Add([]byte{'B', 'E', 'T', 'R', 1, 8, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 2}, uint8(5)) // huge count
	f.Add(valid, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, parts uint8) {
		p := int(parts % 80) // 0 exercises the refusal path
		want, werr := IndexBETR(data, "f.betr", p)
		got, gerr := scanCuts(t, data, "f.betr", p)
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Fatalf("errors differ: IndexBETR %v, CutReader %v", werr, gerr)
			}
			return
		}
		if got.Name != want.Name || got.Width != want.Width || got.Total != want.Total {
			t.Fatalf("header %q/%d/%d, want %q/%d/%d", got.Name, got.Width, got.Total, want.Name, want.Width, want.Total)
		}
		if len(got.Cuts) != len(want.Cuts) {
			t.Fatalf("%d cuts, want %d", len(got.Cuts), len(want.Cuts))
		}
		for k := range want.Cuts {
			if got.Cuts[k] != want.Cuts[k] {
				t.Fatalf("cut %d = %+v, want %+v", k, got.Cuts[k], want.Cuts[k])
			}
		}
	})
}

// scanCuts drains a CutReader over a small-chunk pool, checking that
// no chunk straddles a cut and that each cut is published as soon as
// the scan reaches it.
func scanCuts(t *testing.T, data []byte, file string, parts int) (*BETRIndex, error) {
	r, err := NewCutReader(data, file, parts, NewChunkPool(5))
	if err != nil {
		return nil, err
	}
	var pos int64
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		end := pos + int64(ch.Len())
		ch.Release()
		for k := 0; k <= parts; k++ {
			if e := r.Target(k); e > pos && e < end {
				t.Fatalf("chunk [%d,%d) straddles cut %d at %d", pos, end, k, e)
			}
		}
		pos = end
		if n := len(r.Cuts()); n <= parts && r.Target(n) <= pos {
			t.Fatalf("at entry %d: cut %d (entry %d) not yet published", pos, n, r.Target(n))
		}
	}
	return &BETRIndex{Name: r.Name(), Width: r.Width(), Total: r.Total(), Cuts: r.Cuts()}, nil
}
