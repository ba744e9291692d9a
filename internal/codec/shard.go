package codec

import (
	"fmt"
	"math"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// Shard pricing with an explicit boundary hand-off. Every pricing path
// prices the same thing — a contiguous run of entries whose encoder
// state at the left edge was produced elsewhere, or nowhere for the
// stream's start — so the one pricing loop lives here in a shard-local
// shape: the shard's own entries plus a Boundary value carrying
// everything that crossed the cut. RunFast and RunPlaneSet price a
// whole stream as shard 0, core.EvaluateStreaming runs one shard-0
// pricer per codec, RunParallel hands the boundary over as live encoder
// state, and the distributed coordinator ships it through MarshalState
// and the descriptors' boundary entries.

// Boundary describes how a shard joins the stream at its left edge.
type Boundary struct {
	// First marks shard 0: the encoder starts fresh, no bus priming,
	// and verification covers the stream's leading entries (all of
	// them under VerifyFull, VerifySampleLen under VerifySampled).
	First bool
	// Prev is the entry immediately before the shard (meaningful when
	// !First). The shard re-encodes it to recover the exact word the
	// sequential run left on the bus lines, and primes with that.
	Prev trace.Entry
	// SeedSym is the symbol of the entry before Prev and HaveSeedSym
	// its validity (false when Prev is the stream's first entry). It
	// seeds Seeder encoders — and seedable decoders under VerifyFull —
	// in O(1).
	SeedSym     Symbol
	HaveSeedSym bool
	// State, when non-nil, is the encoder state entering Prev (a
	// Snapshot, possibly round-tripped through MarshalState). It takes
	// precedence over SeedSym and is required for prefix-dependent
	// codecs.
	State State
}

// ShardPricer is the one shard-pricing loop: it prices a contiguous
// run of the stream for several codecs in a single pass, so each entry
// is decoded once (by whoever feeds it) and packed into a Symbol once,
// however many codecs price it. Plane-eligible codecs share one
// PlaneSet — one transpose per 64-address block for all of them — and
// the rest run their batch kernels over the shared symbols. Every
// codec's bus is primed, seeded and verified exactly as a sequential
// run would leave it at the shard's left edge (see Boundary), so
// merged shard buses are bit-identical to one sequential run.
//
// Errors follow codec order: Finish reports the failure of the lowest
// codec index, whether it arose while seeding or while verifying, so
// the reported error does not depend on how the shard was chunked.
// Not safe for concurrent use.
type ShardPricer struct {
	lanes []shardLane
	ps    *PlaneSet
	buf   *runBuf
	base  int // global index of the shard's first entry
	idx   int // entries consumed so far
	// failAt is the lowest failed lane index (len(lanes) when none):
	// lanes past it cannot change the reported error and stop pricing.
	failAt int
	// verifying counts plane lanes still replaying their sampled
	// verification prefix (they need packed symbols).
	verifying int
	scalar    int // lanes on the scalar kernel
	// bitsliced counts the scalar lanes' per-line transitions on the
	// transposed counter; KernelScalar keeps them word-at-a-time.
	bitsliced bool
}

type shardLane struct {
	c     Codec
	be    BatchEncoder // scalar lanes
	b     *bus.Bus     // scalar lanes
	plane int          // index into the PlaneSet, -1 for scalar lanes
	// dec verifies the next vleft words; plane lanes replay them
	// through venc, a scalar encoder private to verification.
	dec   Decoder
	venc  Encoder
	vleft int
	mask  uint64
	err   error
}

// NewShardPricer sets up the pricing of one shard for every codec. b
// describes the shard's left edge; states, when non-nil, holds one
// boundary state per codec and replaces b.State for it. base is the
// global index of the shard's first entry. Set-up failures (a codec
// that cannot be seeded, a kernel the verify mode forbids) are
// reported by Finish, in codec order with every other failure.
func NewShardPricer(codecs []Codec, b Boundary, states []State, base int, opts RunOpts) *ShardPricer {
	p := &ShardPricer{
		lanes:     make([]shardLane, len(codecs)),
		buf:       runBufPool.Get().(*runBuf),
		base:      base,
		failAt:    len(codecs),
		bitsliced: opts.PerLine && opts.Kernel != KernelScalar,
	}
	var planeCodecs []Codec
	var planeWords []uint64
	for i, c := range codecs {
		ln := &p.lanes[i]
		ln.c, ln.plane = c, -1
		ln.mask = bus.Mask(c.PayloadWidth())
		bd := b
		if states != nil {
			bd.State = states[i]
		}
		enc, err := seedEncoder(c, bd)
		if err != nil {
			p.fail(i, err)
			continue
		}
		usePlane, err := PlaneEligible(c, opts.Kernel, opts.Verify)
		if err != nil {
			p.fail(i, err)
			continue
		}
		if usePlane {
			// VerifyFull never routes here, so only shard 0 can owe a
			// verification sample, replayed scalar-ly as the entries
			// stream past (the plane path never materializes words).
			if bd.First && opts.Verify == VerifySampled {
				ln.venc, ln.dec, ln.vleft = c.NewEncoder(), c.NewDecoder(), VerifySampleLen
				p.verifying++
			}
			ln.plane = len(planeCodecs)
			planeCodecs = append(planeCodecs, c)
			if !bd.First {
				planeWords = append(planeWords, enc.Encode(SymbolOf(bd.Prev)))
			}
			continue
		}
		p.scalar++
		ln.be = AsBatch(enc)
		if opts.PerLine {
			ln.b = bus.New(c.BusWidth())
		} else {
			ln.b = bus.NewAggregate(c.BusWidth())
		}
		if bd.First {
			switch opts.Verify {
			case VerifyFull:
				ln.dec, ln.vleft = c.NewDecoder(), math.MaxInt
			case VerifySampled:
				ln.dec, ln.vleft = c.NewDecoder(), VerifySampleLen
			}
			continue
		}
		if opts.Verify == VerifyFull {
			// Mid-stream verification needs a decoder seedable from the
			// boundary alone: the stateless and previous-symbol codes.
			dec := c.NewDecoder()
			if sd, ok := dec.(Seeder); ok {
				if bd.HaveSeedSym {
					sd.SeedFrom(bd.SeedSym)
				}
				ln.dec, ln.vleft = dec, math.MaxInt
			}
		}
		// Re-encode the boundary entry to recover the word the
		// sequential run left on the lines, and prime with it.
		word := enc.Encode(SymbolOf(bd.Prev))
		ln.b.Prime(word)
		if ln.dec != nil {
			if got, want := ln.dec.Decode(word, bd.Prev.Sel()), bd.Prev.Addr&ln.mask; got != want {
				p.fail(i, mismatch(c, base-1, want, got))
			}
		}
	}
	if len(planeCodecs) > 0 {
		ps, err := NewPlaneSet(planeCodecs, opts.PerLine)
		if err != nil {
			// Unreachable: PlaneEligible admitted every codec.
			p.fail(0, err)
			return p
		}
		if !b.First {
			ps.Prime(b.Prev.Addr, planeWords)
		}
		p.ps = ps
	}
	return p
}

// seedEncoder builds c's encoder in the state entering the boundary
// entry: fresh for shard 0, restored from the boundary state, or
// seeded from the previous symbol.
func seedEncoder(c Codec, b Boundary) (Encoder, error) {
	enc := c.NewEncoder()
	if b.First {
		return enc, nil
	}
	if b.State != nil {
		sc, ok := enc.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("codec %s: boundary state for an encoder without StateCodec", c.Name())
		}
		sc.Restore(b.State)
		return enc, nil
	}
	if sd, ok := enc.(Seeder); ok {
		if b.HaveSeedSym {
			sd.SeedFrom(b.SeedSym)
		}
		return enc, nil
	}
	return nil, fmt.Errorf("codec %s: mid-stream shard needs explicit boundary state", c.Name())
}

func mismatch(c Codec, at int, want, got uint64) error {
	return fmt.Errorf("codec %s: round-trip mismatch at entry %d: addr %#x decoded as %#x", c.Name(), at, want, got)
}

func (p *ShardPricer) fail(i int, err error) {
	ln := &p.lanes[i]
	if ln.err == nil {
		ln.err = err
	}
	if i < p.failAt {
		p.failAt = i
	}
}

// needSyms reports whether the next block must be packed: scalar lanes
// encode symbols, and plane lanes verify from them.
func (p *ShardPricer) needSyms() bool { return p.scalar > 0 || p.verifying > 0 }

// Consume prices the next entries of the shard, given in the
// structure-of-arrays layout of trace.Chunk. Calls may split the shard
// anywhere.
func (p *ShardPricer) Consume(addrs []uint64, kinds []trace.Kind) {
	for off := 0; off < len(addrs) && p.failAt > 0; off += runChunk {
		hi := off + runChunk
		if hi > len(addrs) {
			hi = len(addrs)
		}
		var syms []Symbol
		if p.needSyms() {
			syms = p.buf.syms[:hi-off]
			for i := range syms {
				syms[i] = Symbol{Addr: addrs[off+i], Sel: kinds[off+i] == trace.Instr}
			}
		}
		p.encode(syms)
		if p.ps != nil {
			p.ps.Consume(addrs[off:hi])
		}
		p.idx += hi - off
	}
}

// ConsumeEntries is Consume over materialized entries.
func (p *ShardPricer) ConsumeEntries(entries []trace.Entry) {
	for off := 0; off < len(entries) && p.failAt > 0; off += runChunk {
		hi := off + runChunk
		if hi > len(entries) {
			hi = len(entries)
		}
		chunk := entries[off:hi]
		var syms []Symbol
		if p.needSyms() {
			syms = p.buf.syms[:len(chunk)]
			for i, e := range chunk {
				syms[i] = SymbolOf(e)
			}
		}
		p.encode(syms)
		if p.ps != nil {
			p.ps.ConsumeEntries(chunk)
		}
		p.idx += len(chunk)
	}
}

// ConsumeSymbols is Consume over entries already packed into encoder
// symbols, for a producer that packs once for several pricers.
func (p *ShardPricer) ConsumeSymbols(syms []Symbol) {
	for off := 0; off < len(syms) && p.failAt > 0; off += runChunk {
		block := syms[off:min(off+runChunk, len(syms))]
		p.encode(block)
		if p.ps != nil {
			p.ps.ConsumeSymbols(block)
		}
		p.idx += len(block)
	}
}

// encode runs one block of packed symbols (nil when no lane needs
// them) through every scalar lane and every still-verifying plane lane.
func (p *ShardPricer) encode(syms []Symbol) {
	if syms == nil {
		return
	}
	words := p.buf.words[:len(syms)]
	for i := 0; i < p.failAt; i++ {
		ln := &p.lanes[i]
		if ln.err != nil {
			continue
		}
		if ln.plane < 0 {
			ln.be.EncodeBatch(syms, words)
			if p.bitsliced {
				// Per-line counts: the transposed counter's one popcount
				// per line beats the scalar per-set-bit scan (see
				// bus.AccumulateBitsliced), bit-identically.
				ln.b.AccumulateBitsliced(words)
			} else {
				ln.b.Accumulate(words)
			}
		}
		if ln.vleft == 0 {
			continue
		}
		n := len(syms)
		if n > ln.vleft {
			n = ln.vleft
		}
		for j, sym := range syms[:n] {
			var w uint64
			if ln.plane < 0 {
				w = words[j]
			} else {
				w = ln.venc.Encode(sym)
			}
			if got, want := ln.dec.Decode(w, sym.Sel), sym.Addr&ln.mask; got != want {
				p.fail(i, mismatch(ln.c, p.base+p.idx+j, want, got))
				break
			}
		}
		ln.vleft -= n
		if ln.vleft == 0 || ln.err != nil {
			ln.vleft, ln.dec, ln.venc = 0, nil, nil
			if ln.plane >= 0 {
				p.verifying--
			}
		}
	}
}

// Err returns the failure Finish would report if the pricer finished
// now, or nil.
func (p *ShardPricer) Err() error {
	if p.failAt < len(p.lanes) {
		return p.lanes[p.failAt].err
	}
	return nil
}

// Finish returns one accumulator per codec, in construction order, or
// the lowest-indexed codec's failure. The pricer must not be used
// afterwards.
func (p *ShardPricer) Finish() ([]*bus.Bus, error) {
	if p.buf != nil {
		runBufPool.Put(p.buf)
		p.buf = nil
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	buses := make([]*bus.Bus, len(p.lanes))
	for i := range p.lanes {
		if ln := &p.lanes[i]; ln.plane >= 0 {
			buses[i] = p.ps.Bus(ln.plane)
		} else {
			buses[i] = ln.b
		}
	}
	return buses, nil
}

// StateSweep steps one codec's encoder state-only — batch kernel into
// a scratch buffer, nothing counted, nothing verified — so a caller can
// snapshot the sequential run's encoder state at shard boundaries. It
// is the seeding half of shard pricing for prefix-dependent codecs
// (RunParallel's seed sweep, BoundaryStates and the distributed
// coordinator's streamed scan). Not safe for concurrent use.
type StateSweep struct {
	sc  StateCodec
	be  BatchEncoder
	buf *runBuf
}

// NewStateSweep returns a sweep over c's encoder, or nil when c's
// encoder is a Seeder (its boundary state follows from the previous
// symbol in O(1), so no sweep is needed). A codec that is neither
// Seeder nor StateCodec cannot be sharded.
func NewStateSweep(c Codec) (*StateSweep, error) {
	enc := c.NewEncoder()
	if _, ok := enc.(Seeder); ok {
		return nil, nil
	}
	sc, ok := enc.(StateCodec)
	if !ok {
		return nil, fmt.Errorf("codec %s: neither Seeder nor StateCodec; cannot shard", c.Name())
	}
	return &StateSweep{sc: sc, be: AsBatch(enc), buf: runBufPool.Get().(*runBuf)}, nil
}

// Step advances the encoder over syms.
func (s *StateSweep) Step(syms []Symbol) {
	for off := 0; off < len(syms); off += runChunk {
		hi := off + runChunk
		if hi > len(syms) {
			hi = len(syms)
		}
		s.be.EncodeBatch(syms[off:hi], s.buf.words[:hi-off])
	}
}

// StepEntries advances the encoder over materialized entries.
func (s *StateSweep) StepEntries(entries []trace.Entry) {
	for off := 0; off < len(entries); off += runChunk {
		hi := off + runChunk
		if hi > len(entries) {
			hi = len(entries)
		}
		syms := s.buf.syms[:hi-off]
		for i, e := range entries[off:hi] {
			syms[i] = SymbolOf(e)
		}
		s.be.EncodeBatch(syms, s.buf.words[:hi-off])
	}
}

// Snapshot captures the encoder state reached so far.
func (s *StateSweep) Snapshot() State { return s.sc.Snapshot() }

// Close returns the sweep's scratch buffers; the sweep must not be used
// afterwards.
func (s *StateSweep) Close() {
	if s.buf != nil {
		runBufPool.Put(s.buf)
		s.buf = nil
	}
}

// BoundaryStates runs the state-only seeding sweep for a distributed
// sweep: one sequential pass of the batch kernel over the stream prefix
// (nothing counted, nothing verified) capturing the marshaled encoder
// state entering each interior cut's boundary entry — the bytes a
// coordinator ships to worker processes as Boundary.State. cuts is the
// ascending cut-point slice (len = shards+1, cuts[0] = 0); the returned
// slice is parallel to it, with states[k] filled for interior cuts
// whose shard starts mid-stream (cuts[k] > 0) and nil elsewhere. For
// Seeder codecs no sweep is needed (the boundary seeds in O(1) from the
// previous symbol) and the result is all nil.
func BoundaryStates(c Codec, entries []trace.Entry, cuts []int) ([][]byte, error) {
	states := make([][]byte, len(cuts))
	sw, err := NewStateSweep(c)
	if sw == nil || err != nil {
		if err != nil {
			return nil, err
		}
		return states, nil
	}
	defer sw.Close()
	j := 0
	for k := 1; k < len(cuts)-1; k++ {
		if cuts[k] == 0 {
			continue
		}
		// Advance to the state entering entry cuts[k]-1 (the boundary
		// entry the shard re-encodes to prime its bus).
		lead := cuts[k] - 1
		if lead > j {
			sw.StepEntries(entries[j:lead])
			j = lead
		}
		b, err := MarshalState(sw.Snapshot())
		if err != nil {
			return nil, err
		}
		states[k] = b
	}
	return states, nil
}
