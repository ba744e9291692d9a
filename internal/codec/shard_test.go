package codec

import (
	"reflect"
	"strings"
	"testing"

	"busenc/internal/bus"
	"busenc/internal/trace"
)

// TestShardPricerMultiCodecParity: one ShardPricer per shard pricing
// every registered codec in a single pass — fed in structure-of-arrays
// blocks that do not align with the engine's batch size, with boundary
// states round-tripped through MarshalState like the distributed
// sweep's — merges to exactly RunFast's results, per-line counts
// included, under every kernel and verify mode.
func TestShardPricerMultiCodecParity(t *testing.T) {
	s := randomMixStream(32, 2*runChunk+3001, 17)
	n := s.Len()
	cuts := []int{0, 1, 777, runChunk + 1, 2 * runChunk, n - 1, n}
	codecs := allCodecs(t, 32)
	// Marshaled boundary states per codec per cut, as a coordinator
	// would ship them.
	states := make([][][]byte, len(codecs))
	for i, c := range codecs {
		st, err := BoundaryStates(c, s.Entries, cuts)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	addrs := make([]uint64, n)
	kinds := make([]trace.Kind, n)
	for i, e := range s.Entries {
		addrs[i], kinds[i] = e.Addr, e.Kind
	}
	for _, kernel := range []Kernel{KernelAuto, KernelScalar} {
		for _, verify := range []VerifyMode{VerifyFull, VerifySampled, VerifyNone} {
			for _, perLine := range []bool{false, true} {
				opts := RunOpts{Verify: verify, PerLine: perLine, Kernel: kernel}
				slots := make([][]*bus.Bus, len(codecs))
				for k := 0; k+1 < len(cuts); k++ {
					lo, hi := cuts[k], cuts[k+1]
					bd := Boundary{First: k == 0}
					var sts []State
					if k > 0 {
						bd.Prev = s.Entries[lo-1]
						if lo >= 2 {
							bd.SeedSym, bd.HaveSeedSym = SymbolOf(s.Entries[lo-2]), true
						}
						sts = make([]State, len(codecs))
						for i := range codecs {
							if b := states[i][k]; b != nil {
								st, err := UnmarshalState(b)
								if err != nil {
									t.Fatal(err)
								}
								sts[i] = st
							}
						}
					}
					p := NewShardPricer(codecs, bd, sts, lo, opts)
					for off := lo; off < hi; off += 1000 {
						end := off + 1000
						if end > hi {
							end = hi
						}
						p.Consume(addrs[off:end], kinds[off:end])
					}
					buses, err := p.Finish()
					if err != nil {
						t.Fatalf("kernel=%v verify=%d shard %d: %v", kernel, verify, k, err)
					}
					for i := range codecs {
						slots[i] = append(slots[i], buses[i])
					}
				}
				for i, c := range codecs {
					merged, err := bus.MergeSlots(slots[i], nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := RunFast(c, s, RunOpts{Verify: VerifyNone, PerLine: perLine})
					if err != nil {
						t.Fatal(err)
					}
					got := Result{Transitions: merged.Transitions(), Cycles: merged.Cycles(),
						MaxPerCycle: merged.MaxPerCycle(), PerLine: merged.PerLine()}
					label := c.Name() + "/" + kernel.String()
					sameAggregate(t, label, got, want)
					if !reflect.DeepEqual(got.PerLine, want.PerLine) {
						t.Errorf("%s: per-line counts diverge", label)
					}
				}
			}
		}
	}
}

// TestShardPricerErrorOrder: the reported failure is the lowest codec
// index's, whether it arose at set-up or mid-pass, so chunking and
// codec interleaving cannot change which error a sweep reports.
func TestShardPricerErrorOrder(t *testing.T) {
	s := randomMixStream(32, 3000, 3)
	t0, err := New("t0", 32, Options{Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := New("binary", 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A mid-stream shard with no state: t0 cannot be seeded; binary can.
	bd := Boundary{Prev: s.Entries[99], SeedSym: SymbolOf(s.Entries[98]), HaveSeedSym: true}
	p := NewShardPricer([]Codec{bin, t0}, bd, nil, 100, RunOpts{Verify: VerifyNone})
	p.ConsumeEntries(s.Entries[100:])
	if _, err := p.Finish(); err == nil || !strings.Contains(err.Error(), "codec t0") {
		t.Fatalf("err = %v, want t0's seeding failure", err)
	}
	// KernelPlane refuses t0 at set-up; binary (index 0) is fine.
	p = NewShardPricer([]Codec{bin, t0}, Boundary{First: true}, nil, 0, RunOpts{Kernel: KernelPlane, Verify: VerifyNone})
	p.ConsumeEntries(s.Entries)
	if _, err := p.Finish(); err == nil || !strings.Contains(err.Error(), "t0") {
		t.Fatalf("err = %v, want t0's kernel refusal", err)
	}
}
