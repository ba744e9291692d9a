package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/trace"
)

// maxFuzzEntries bounds the fuzzed trace: long enough that RunParallel
// really shards (up to four ways), short enough that the fuzzer keeps
// a useful exec rate over every path and codec.
const maxFuzzEntries = 4 * codec.MinShardLen

// FuzzPricingPaths is the differential oracle of the pricing engine:
// every path that prices a trace — RunFast under each kernel, the
// shared-transpose plane sweep, shard-parallel pricing, the streaming
// fan-out and the shard pricer under each of its feeds — must report
// exactly what codec.Run, the dispatch-per-entry reference, reports for
// every registered codec, whatever the trace, chunk length, shard
// count, verify mode and per-line setting.
func FuzzPricingPaths(f *testing.F) {
	// Seeds: chunk length 1 over a sharded trace, the whole trace as one
	// chunk, a chunk length that does not divide the trace, a tiny trace
	// and an empty one.
	f.Add([]byte{0, 1, 2, 3}, uint16(1100), uint16(0), uint8(2), uint8(1), true)
	f.Add([]byte("branch, load, store and fetch"), uint16(2048), uint16(2048), uint8(3), uint8(0), false)
	f.Add([]byte{0xff, 0x40, 0x80}, uint16(2000), uint16(6), uint8(16), uint8(2), true)
	f.Add([]byte{0xc3}, uint16(3), uint16(1), uint8(4), uint8(1), false)
	f.Add([]byte{}, uint16(0), uint16(0), uint8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, n, chunk uint16, shards, mode uint8, perLine bool) {
		s := fuzzTrace(data, int(n)%(maxFuzzEntries+1))
		chunkLen := 1 + int(chunk)%(maxFuzzEntries+1)
		nShards := int(shards) % 9 // 0 means GOMAXPROCS
		verify := codec.VerifyMode(mode % 3)
		opts := core.DefaultOptions
		opts.Train = s // the profile-driven beach code trains on the trace itself

		names := oracleCodecs()
		cs := make([]codec.Codec, len(names))
		want := make([]codec.Result, len(names))
		for i, name := range names {
			c, err := codec.New(name, core.Width, opts)
			if err != nil {
				t.Fatal(err)
			}
			cs[i] = c
			if want[i], err = codec.Run(c, s); err != nil {
				t.Fatalf("oracle: %v", err)
			}
		}

		// The plane kernel cannot verify every entry; it samples instead.
		planeVerify := verify
		if planeVerify == codec.VerifyFull {
			planeVerify = codec.VerifySampled
		}
		var planeCs []codec.Codec
		var planeWant []codec.Result
		for i, c := range cs {
			for _, pl := range []bool{false, true} {
				for _, k := range []codec.Kernel{codec.KernelScalar, codec.KernelAuto} {
					got, err := codec.RunFast(c, s, codec.RunOpts{Verify: verify, PerLine: pl, Kernel: k})
					samePricing(t, fmt.Sprintf("RunFast kernel=%v verify=%d perLine=%v", k, verify, pl), []codec.Result{got}, err, want[i:i+1], pl)
				}
				if codec.HasPlaneKernel(c) {
					got, err := codec.RunFast(c, s, codec.RunOpts{Verify: planeVerify, PerLine: pl, Kernel: codec.KernelPlane})
					samePricing(t, fmt.Sprintf("RunFast kernel=plane verify=%d perLine=%v", planeVerify, pl), []codec.Result{got}, err, want[i:i+1], pl)
				}
			}
			if codec.HasPlaneKernel(c) {
				planeCs = append(planeCs, c)
				planeWant = append(planeWant, want[i])
			}
		}
		got, err := codec.RunPlaneSet(planeCs, s, codec.RunOpts{Verify: planeVerify, PerLine: perLine})
		samePricing(t, "RunPlaneSet", got, err, planeWant, perLine)

		for _, k := range []codec.Kernel{codec.KernelAuto, codec.KernelScalar} {
			label := fmt.Sprintf("kernel=%v verify=%d shards=%d chunk=%d", k, verify, nShards, chunkLen)
			for i, c := range cs {
				got, err := codec.RunParallel(c, s, codec.ParallelOpts{Shards: nShards, Verify: verify, PerLine: perLine, Kernel: k})
				samePricing(t, "RunParallel "+label, []codec.Result{got}, err, want[i:i+1], perLine)
			}
			got, err := core.EvaluateStreaming(s.Chunks(chunkLen), core.Width, names, opts,
				core.FanoutConfig{Verify: verify, PerLine: perLine, Kernel: k})
			samePricing(t, "EvaluateStreaming "+label, got, err, want, perLine)
			got, err = core.EvaluateParallel(s, core.Width, names, opts,
				core.ParallelConfig{Shards: nShards, Verify: verify, PerLine: perLine, Kernel: k})
			samePricing(t, "EvaluateParallel "+label, got, err, want, perLine)
			for _, fd := range pricerFeeds(s, chunkLen) {
				got, err := priceShards(cs, s, nShards, fd.feed,
					codec.RunOpts{Verify: verify, PerLine: perLine, Kernel: k})
				samePricing(t, "ShardPricer."+fd.name+" "+label, got, err, want, perLine)
			}
		}
	})
}

// oracleCodecs is every registered codec except xbroken, which this
// package's internal tests register with a decoder that fails every
// round trip (the oracle rejects it by design).
func oracleCodecs() []string {
	var names []string
	for _, n := range codec.Names() {
		if n != "xbroken" {
			names = append(names, n)
		}
	}
	return names
}

// fuzzTrace expands the fuzzed bytes into an n-entry address trace that
// mixes in-sequence fetch runs (what T0 freezes), branches, and data
// reads and writes near or far from the previous data address.
func fuzzTrace(data []byte, n int) *trace.Stream {
	const mask = 1<<core.Width - 1
	s := trace.New("fuzz", core.Width)
	pc, da := uint64(0x00400000), uint64(0x10008000)
	for i := 0; i < n; i++ {
		var b byte
		if len(data) > 0 {
			b = data[i%len(data)] ^ byte(i/len(data))
		}
		switch b >> 6 {
		case 0, 1:
			pc += core.Stride
			s.Append(pc&mask, trace.Instr)
		case 2:
			pc += uint64(int64(int8(b<<2))) * core.Stride
			s.Append(pc&mask, trace.Instr)
		default:
			if b&8 == 0 {
				da += uint64(b&7) * core.Stride
			} else {
				da ^= uint64(b) << (b % 24)
			}
			kind := trace.DataRead
			if b&16 != 0 {
				kind = trace.DataWrite
			}
			s.Append(da&mask, kind)
		}
	}
	return s
}

type pricerFeed struct {
	name string
	feed func(p *codec.ShardPricer, lo, hi int)
}

// pricerFeeds returns one feed per ShardPricer entry point, each
// handing [lo, hi) of s over in chunkLen pieces.
func pricerFeeds(s *trace.Stream, chunkLen int) []pricerFeed {
	addrs := make([]uint64, s.Len())
	kinds := make([]trace.Kind, s.Len())
	syms := make([]codec.Symbol, s.Len())
	for i, e := range s.Entries {
		addrs[i], kinds[i], syms[i] = e.Addr, e.Kind, codec.SymbolOf(e)
	}
	pieces := func(lo, hi int, f func(lo, hi int)) {
		for off := lo; off < hi; off += chunkLen {
			f(off, min(off+chunkLen, hi))
		}
	}
	return []pricerFeed{
		{"Consume", func(p *codec.ShardPricer, lo, hi int) {
			pieces(lo, hi, func(lo, hi int) { p.Consume(addrs[lo:hi], kinds[lo:hi]) })
		}},
		{"ConsumeEntries", func(p *codec.ShardPricer, lo, hi int) {
			pieces(lo, hi, func(lo, hi int) { p.ConsumeEntries(s.Entries[lo:hi]) })
		}},
		{"ConsumeSymbols", func(p *codec.ShardPricer, lo, hi int) {
			pieces(lo, hi, func(lo, hi int) { p.ConsumeSymbols(syms[lo:hi]) })
		}},
	}
}

// priceShards splits s into equal shards (at most nShards, at least
// one), prices each with one ShardPricer over every codec — boundary
// states marshaled as a distributed coordinator ships them — and
// merges the shard buses in order.
func priceShards(cs []codec.Codec, s *trace.Stream, nShards int, feed func(*codec.ShardPricer, int, int), opts codec.RunOpts) ([]codec.Result, error) {
	n := s.Len()
	p := max(1, min(nShards, n))
	cuts := make([]int, p+1)
	for k := range cuts {
		cuts[k] = k * n / p
	}
	states := make([][][]byte, len(cs))
	for i, c := range cs {
		st, err := codec.BoundaryStates(c, s.Entries, cuts)
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	slots := make([][]*bus.Bus, len(cs))
	for k := 0; k < p; k++ {
		lo := cuts[k]
		bd := codec.Boundary{First: k == 0}
		var sts []codec.State
		if k > 0 {
			bd.Prev = s.Entries[lo-1]
			if lo >= 2 {
				bd.SeedSym, bd.HaveSeedSym = codec.SymbolOf(s.Entries[lo-2]), true
			}
			sts = make([]codec.State, len(cs))
			for i := range cs {
				if b := states[i][k]; b != nil {
					st, err := codec.UnmarshalState(b)
					if err != nil {
						return nil, err
					}
					sts[i] = st
				}
			}
		}
		pr := codec.NewShardPricer(cs, bd, sts, lo, opts)
		feed(pr, lo, cuts[k+1])
		buses, err := pr.Finish()
		if err != nil {
			return nil, err
		}
		for i := range cs {
			slots[i] = append(slots[i], buses[i])
		}
	}
	out := make([]codec.Result, len(cs))
	for i, c := range cs {
		merged, err := bus.MergeSlots(slots[i], nil)
		if err != nil {
			return nil, err
		}
		out[i] = codec.ResultOf(c, s.Name, merged)
	}
	return out, nil
}

// samePricing fails the run unless path priced every codec exactly as
// the oracle did: Transitions, Cycles, MaxPerCycle and, when requested,
// PerLine, in the oracle's codec order.
func samePricing(t *testing.T, path string, got []codec.Result, err error, want []codec.Result, perLine bool) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results for %d codecs", path, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Codec != w.Codec || g.Transitions != w.Transitions || g.Cycles != w.Cycles || g.MaxPerCycle != w.MaxPerCycle {
			t.Fatalf("%s: %s %d/%d/%d, oracle %s %d/%d/%d", path,
				g.Codec, g.Transitions, g.Cycles, g.MaxPerCycle,
				w.Codec, w.Transitions, w.Cycles, w.MaxPerCycle)
		}
		if perLine && !reflect.DeepEqual(g.PerLine, w.PerLine) {
			t.Fatalf("%s: %s per-line counts %v, oracle %v", path, g.Codec, g.PerLine, w.PerLine)
		}
	}
}
