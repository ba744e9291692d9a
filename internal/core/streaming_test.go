package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"busenc/internal/codec"
	"busenc/internal/trace"
)

var streamingCodes = []string{"binary", "gray", "t0", "businvert", "t0bi", "dualt0", "dualt0bi"}

// TestEvaluateStreamingParity: one pass over a serialized trace — BETR
// binary or text — must price every codec exactly as the materialized
// fast path does, and one codec must match the reference Run at every
// chunk size (a codec whose sequential state failed to carry across a
// chunk boundary would diverge at size 1 or 7 at once).
func TestEvaluateStreamingParity(t *testing.T) {
	sets, err := Streams(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	s := sets[0].Muxed
	formats := []struct {
		name  string
		write func(*bytes.Buffer, *trace.Stream) error
		open  func(*bytes.Buffer) (trace.ChunkReader, error)
	}{
		{"binary", func(b *bytes.Buffer, s *trace.Stream) error { return trace.WriteBinary(b, s) },
			func(b *bytes.Buffer) (trace.ChunkReader, error) {
				return trace.OpenBinary(bytes.NewReader(b.Bytes()), "", trace.NewChunkPool(1024))
			}},
		{"text", func(b *bytes.Buffer, s *trace.Stream) error { return trace.WriteText(b, s) },
			func(b *bytes.Buffer) (trace.ChunkReader, error) {
				return trace.OpenText(bytes.NewReader(b.Bytes()), "", trace.NewChunkPool(512))
			}},
	}
	for _, f := range formats {
		var buf bytes.Buffer
		if err := f.write(&buf, s); err != nil {
			t.Fatal(err)
		}
		r, err := f.open(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateStreaming(r, Width, streamingCodes, DefaultOptions, FanoutConfig{Verify: codec.VerifySampled})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(streamingCodes) {
			t.Fatalf("got %d results for %d codes", len(got), len(streamingCodes))
		}
		for i, code := range streamingCodes {
			want, err := codec.RunFast(codec.MustNew(code, Width, DefaultOptions), s, codec.RunOpts{Verify: codec.VerifyNone})
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Codec != code {
				t.Errorf("result %d is %q, want %q (order must follow codes)", i, got[i].Codec, code)
			}
			if got[i].Transitions != want.Transitions || got[i].Cycles != want.Cycles || got[i].MaxPerCycle != want.MaxPerCycle {
				t.Errorf("%s/%s: streaming %d/%d/%d != materialized %d/%d/%d", f.name, code,
					got[i].Transitions, got[i].Cycles, got[i].MaxPerCycle,
					want.Transitions, want.Cycles, want.MaxPerCycle)
			}
			if got[i].Stream != s.Name {
				t.Errorf("%s: stream name %q, want %q", code, got[i].Stream, s.Name)
			}
		}
	}

	const code = "dualt0bi"
	ref := codec.MustRun(codec.MustNew(code, Width, DefaultOptions), s)
	for _, size := range []int{1, 7, 4096, s.Len()} {
		got, err := EvaluateStreaming(s.Chunks(size), Width, []string{code}, DefaultOptions,
			FanoutConfig{Verify: codec.VerifyFull, PerLine: true})
		if err != nil {
			t.Fatalf("chunk %d: %v", size, err)
		}
		g := got[0]
		if g.Transitions != ref.Transitions || g.Cycles != ref.Cycles || g.MaxPerCycle != ref.MaxPerCycle {
			t.Errorf("chunk %d: %d/%d/%d != reference %d/%d/%d", size,
				g.Transitions, g.Cycles, g.MaxPerCycle, ref.Transitions, ref.Cycles, ref.MaxPerCycle)
		}
		if !reflect.DeepEqual(g.PerLine, ref.PerLine) {
			t.Errorf("chunk %d: per-line counts diverge", size)
		}
	}
}

// TestEvaluateStreamingPerLine covers a long stream in chunks that do
// not divide it and the empty and tiny streams.
func TestEvaluateStreamingPerLine(t *testing.T) {
	sets, err := Streams(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		s     *trace.Stream
		chunk int
	}
	inputs := []input{{sets[1].Instr, 333}}
	for n := 0; n <= 3; n++ {
		s := trace.New("tiny", 32)
		for i := 0; i < n; i++ {
			s.Append(uint64(0x1000+4*i), trace.Instr)
		}
		inputs = append(inputs, input{s, 2})
	}
	for _, in := range inputs {
		s := in.s
		got, err := EvaluateStreaming(s.Chunks(in.chunk), Width, []string{"t0"}, DefaultOptions, FanoutConfig{PerLine: true, Verify: codec.VerifyNone})
		if err != nil {
			t.Fatal(err)
		}
		want := codec.MustRunFast(codec.MustNew("t0", Width, DefaultOptions), s, codec.RunOpts{PerLine: true, Verify: codec.VerifyNone})
		if got[0].Cycles != want.Cycles || got[0].Transitions != want.Transitions {
			t.Fatalf("%d entries: %d/%d != %d/%d", s.Len(), got[0].Transitions, got[0].Cycles, want.Transitions, want.Cycles)
		}
		if len(got[0].PerLine) != len(want.PerLine) {
			t.Fatalf("per-line width %d != %d", len(got[0].PerLine), len(want.PerLine))
		}
		for i := range want.PerLine {
			if got[0].PerLine[i] != want.PerLine[i] {
				t.Fatalf("%d entries, line %d: %d != %d", s.Len(), i, got[0].PerLine[i], want.PerLine[i])
			}
		}
	}
}

func TestEvaluateStreamingUnknownCodec(t *testing.T) {
	s := trace.New("x", 32)
	s.Append(0, trace.Instr)
	if _, err := EvaluateStreaming(s.Chunks(0), Width, []string{"nope"}, DefaultOptions, FanoutConfig{}); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := EvaluateStreaming(s.Chunks(0), Width, nil, DefaultOptions, FanoutConfig{}); err == nil {
		t.Error("empty codec list accepted")
	}
}

// erroringReader fails after a few chunks.
type erroringReader struct {
	inner trace.ChunkReader
	left  int
	err   error
}

func (e *erroringReader) Next() (*trace.Chunk, error) {
	if e.left <= 0 {
		return nil, e.err
	}
	e.left--
	return e.inner.Next()
}
func (e *erroringReader) Name() string { return e.inner.Name() }
func (e *erroringReader) Width() int   { return e.inner.Width() }

func TestEvaluateStreamingReaderError(t *testing.T) {
	sets, err := Streams(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("backend gone")
	for _, tc := range []struct {
		codes        []string
		chunk, after int
		depth        int
	}{
		{streamingCodes, 128, 5, 2},
		{[]string{"t0"}, 512, 3, 0},
	} {
		r := &erroringReader{inner: sets[0].Muxed.Chunks(tc.chunk), left: tc.after, err: sentinel}
		_, err = EvaluateStreaming(r, Width, tc.codes, DefaultOptions, FanoutConfig{Verify: codec.VerifyNone, Depth: tc.depth})
		if !errors.Is(err, sentinel) {
			t.Errorf("%v: reader error not propagated: %v", tc.codes, err)
		}
	}
}

// brokenStreamCodec always decodes zero, so verification must fail; the
// other workers keep draining and the producer must not deadlock even
// with a tiny channel depth.
type brokenStreamCodec struct{ codec.Codec }

type zeroDecoder struct{}

func (zeroDecoder) Decode(uint64, bool) uint64 { return 0xdead }
func (zeroDecoder) Reset()                     {}

func (b brokenStreamCodec) Name() string              { return "xbroken" }
func (b brokenStreamCodec) NewDecoder() codec.Decoder { return zeroDecoder{} }

func init() {
	codec.Register("xbroken", func(width int, opts codec.Options) (codec.Codec, error) {
		inner, err := codec.New("binary", width, opts)
		if err != nil {
			return nil, err
		}
		return brokenStreamCodec{inner}, nil
	})
}

// TestEvaluateStreamingVerificationFailure: full and sampled
// verification both catch the broken decoder and name it; without
// verification nothing is decoded, so nothing fails.
func TestEvaluateStreamingVerificationFailure(t *testing.T) {
	sets, err := Streams(Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	s := sets[0].Muxed
	for _, verify := range []codec.VerifyMode{codec.VerifyFull, codec.VerifySampled, codec.VerifyNone} {
		_, err = EvaluateStreaming(s.Chunks(64), Width,
			[]string{"binary", "xbroken", "t0"}, DefaultOptions,
			FanoutConfig{Verify: verify, Depth: 1})
		if verify == codec.VerifyNone {
			if err != nil {
				t.Errorf("VerifyNone should not decode at all: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("verify=%d: broken decoder not detected", verify)
		}
		if got := err.Error(); !contains(got, "xbroken") {
			t.Errorf("verify=%d: error %q does not name the failing codec", verify, got)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
