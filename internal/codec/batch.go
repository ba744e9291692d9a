package codec

import (
	"fmt"
	"sync"

	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Batched evaluation engine. The paper's whole evaluation reduces to
// "encode a stream, count transitions": this file provides the fast path
// for that loop. Hot codecs implement BatchEncoder with hand-written
// chunk loops that keep their state in registers; the bus side counts
// aggregates with XOR+popcount over the chunk (bus.Accumulate); and
// decode-verification is sampled rather than exhaustive unless the caller
// asks otherwise. RunFast produces bit-identical Transitions, Cycles and
// MaxPerCycle to the reference Run for every codec — the parity test in
// batch_test.go enforces this for all registered codes.

// BatchEncoder is an optional fast-path interface an Encoder may
// implement: EncodeBatch encodes syms into out (len(out) must be at least
// len(syms)), advancing the encoder state exactly as the equivalent
// sequence of Encode calls would. Implementations are free to hoist their
// state into locals for the duration of the chunk.
type BatchEncoder interface {
	EncodeBatch(syms []Symbol, out []uint64)
}

// AsBatch returns enc's batch fast path if it implements BatchEncoder, or
// a generic wrapper that loops over Encode otherwise. The wrapper shares
// enc's state, so batch and scalar calls may be freely interleaved.
func AsBatch(enc Encoder) BatchEncoder {
	if be, ok := enc.(BatchEncoder); ok {
		return be
	}
	return genericBatch{enc}
}

type genericBatch struct{ enc Encoder }

func (g genericBatch) EncodeBatch(syms []Symbol, out []uint64) {
	for i, s := range syms {
		out[i] = g.enc.Encode(s)
	}
}

// VerifyMode selects how much decode round-trip checking RunFast does.
type VerifyMode int

const (
	// VerifyFull decodes and checks every entry — the reference behavior
	// of Run. This is the zero value, so RunOpts{} is as safe as Run.
	VerifyFull VerifyMode = iota
	// VerifySampled decodes and checks only the first VerifySampleLen
	// entries, then stops running the decoder. Decoder state depends on
	// every prior word, so a prefix is the only subset that can be checked
	// without paying for a full decode; it still catches systematic codec
	// bugs while keeping the hot loop encode-and-count only.
	VerifySampled
	// VerifyNone skips decode checking entirely.
	VerifyNone
)

// VerifySampleLen is the number of leading entries VerifySampled checks.
const VerifySampleLen = 1024

// Kernel selects the pricing kernel the RunFast family uses.
type Kernel int

const (
	// KernelAuto picks the plane-domain bit-sliced path whenever the
	// codec implements PlaneEncoder and the verify mode permits it
	// (VerifyFull needs every encoded word and so forces the scalar
	// path). Codecs left on their scalar batch kernels count per-line
	// transitions on the transposed counter (bus.AccumulateBitsliced).
	// This is the zero value: eligible codecs get the fast kernels
	// without callers opting in, and parity tests pin every path
	// bit-identical.
	KernelAuto Kernel = iota
	// KernelScalar forces the word-at-a-time scalar path: batch-kernel
	// encode and per-word counting (bus.Accumulate), per-line counts
	// included.
	KernelScalar
	// KernelPlane requires the plane-domain path: evaluation fails if
	// the codec has no plane kernel or the verify mode demands the
	// scalar path. For tests and benchmarks that must not silently
	// fall back.
	KernelPlane
)

// String names the kernel for flags and error messages.
func (k Kernel) String() string {
	switch k {
	case KernelScalar:
		return "scalar"
	case KernelPlane:
		return "plane"
	default:
		return "auto"
	}
}

// ParseKernel maps a flag or query-parameter value to a Kernel. The
// empty string means KernelAuto, matching the zero value.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "scalar":
		return KernelScalar, nil
	case "plane":
		return KernelPlane, nil
	}
	return KernelAuto, fmt.Errorf("codec: unknown kernel %q (want auto, scalar or plane)", s)
}

// RunOpts tunes the RunFast evaluation path.
type RunOpts struct {
	// Verify selects the decode round-trip checking mode.
	Verify VerifyMode
	// PerLine requests per-line transition counts in Result.PerLine. When
	// false (the default) the counting loop is aggregate-only and
	// Result.PerLine is nil.
	PerLine bool
	// Kernel selects the pricing kernel (KernelAuto by default).
	Kernel Kernel
}

// runChunk is the batch granularity: large enough to amortize the chunk
// setup, small enough that the symbol+word buffers stay cache-resident
// (4096 × 24 B ≈ 96 KiB).
const runChunk = 4096

// RunChunkLen is the engine batch granularity, exported for benchmark
// records (bench.*Record.ChunkLen identity fields).
const RunChunkLen = runChunk

type runBuf struct {
	syms  []Symbol
	words []uint64
}

var runBufPool = sync.Pool{New: func() any {
	return &runBuf{syms: make([]Symbol, runChunk), words: make([]uint64, runChunk)}
}}

// RunFast is the batched counterpart of Run: it drives the stream through
// the codec in chunks, using the codec's BatchEncoder kernel (or its
// plane kernel, per opts.Kernel) and counting transitions in bulk.
// Transitions, Cycles and MaxPerCycle are identical to Run's for every
// codec; PerLine is filled only when opts.PerLine is set, and decode
// verification follows opts.Verify. It is the whole stream priced as
// shard 0 of a ShardPricer. RunFast is safe for concurrent use across
// goroutines (each call has its own encoder, decoder, bus and pooled
// buffers).
func RunFast(c Codec, s *trace.Stream, opts RunOpts) (Result, error) {
	root := obs.StartSpan("codec.run_fast", obs.StageEncode).WithCodec(c.Name()).WithStream(s.Name)
	res, err := priceStream([]Codec{c}, s, opts, root)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// priceStream prices a materialized stream through every codec in one
// ShardPricer pass, one codec.chunk span per engine batch under root,
// which it ends. Results come back in codec order.
func priceStream(codecs []Codec, s *trace.Stream, opts RunOpts, root obs.SpanHandle) ([]Result, error) {
	p := NewShardPricer(codecs, Boundary{First: true}, nil, 0, opts)
	entries := s.Entries
	for base := 0; base < len(entries); base += runChunk {
		csp := root.Child("codec.chunk", obs.StageEncode).WithChunk(base / runChunk)
		p.ConsumeEntries(entries[base:min(base+runChunk, len(entries))])
		csp.End()
	}
	buses, err := p.Finish()
	if err != nil {
		root.EndErr(err)
		return nil, err
	}
	root.End()
	results := make([]Result, len(codecs))
	for i, c := range codecs {
		results[i] = ResultOf(c, s.Name, buses[i])
		RecordRun(c.Name(), int64(len(entries)), results[i].Transitions)
	}
	return results, nil
}

// MustRunFast is RunFast panicking on round-trip failure.
func MustRunFast(c Codec, s *trace.Stream, opts RunOpts) Result {
	r, err := RunFast(c, s, opts)
	if err != nil {
		panic(err)
	}
	return r
}
