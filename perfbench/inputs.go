package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/trace"
	"busenc/internal/workload"
)

// sizes fixes how much work the workloads do. Tests shrink it; a run
// always uses defaultSizes.
type sizes struct {
	fileEntries  int // price-file and sweep-peers trace
	smallEntries int // serve-mixed sync upload
	largeEntries int // serve-mixed async upload (every 8th iteration)
	smallBases   int // distinct small upload bodies
	largeBases   int // distinct large upload bodies
	burst        int // serve-mixed iterations per client between GCs
	layerReps    int // traced-run repetitions per layer call
	// setupReps is how many times each workload sets up per run;
	// setup_s is their median. The cheaper the set-up, the more reps
	// it takes to steady the median.
	setupReps map[string]int
}

var defaultSizes = sizes{
	fileEntries:  1 << 22,
	smallEntries: 1 << 15,
	largeEntries: 1 << 17,
	smallBases:   4,
	largeBases:   2,
	burst:        32,
	layerReps:    5,
	setupReps:    map[string]int{"price-file": 7, "sweep-peers": 3, "serve-mixed": 101},
}

// muxModel is the multiplexed instruction+data stream of every input:
// the synthetic suite's average parameters (workload.Suite), which
// reproduce the paper's 57.62% in-sequence multiplexed stream.
func muxModel(name string, n int, seed int64) *trace.Stream {
	b := workload.Benchmark{Name: name, InstrSeq: 0.63, DataSeq: 0.114, DataFrac: 0.045, Length: n, Seed: seed}
	return b.Muxed()
}

// fileInput is the BETR file priced by price-file and sweep-peers.
type fileInput struct {
	stream *trace.Stream
	path   string
	ref    []codec.Result // codec.Run over paperCodes, with PerLine
}

// uploadBody is one serve-mixed base trace in BETR form, split around
// its stream name so every upload can carry a fresh name: the store
// content-addresses bodies, and a new name makes a new digest without
// changing any count.
type uploadBody struct {
	stream *trace.Stream
	prefix []byte // magic, version, width, name length
	suffix []byte // entry count and entries
	ref    []codec.Result
}

// uploadNameLen is the fixed length of every upload's stream name.
const uploadNameLen = 16

// bytes returns a complete body named name (uploadNameLen bytes).
func (b *uploadBody) bytes(name string) []byte {
	out := make([]byte, 0, len(b.prefix)+len(name)+len(b.suffix))
	out = append(append(append(out, b.prefix...), name...), b.suffix...)
	return out
}

// inputs holds everything a run is given, all derived from the seed.
type inputs struct {
	file  *fileInput
	small []*uploadBody
	large []*uploadBody
}

// seeds derives the independent generator seeds of one run.
func seeds(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

// makeInputs generates the inputs a workload needs under dir and
// computes their codec.Run references. None of it is timed.
func makeInputs(sz sizes, seed int64, dir string, withFile, withBodies bool) (*inputs, error) {
	ss := seeds(seed, 1+sz.smallBases+sz.largeBases)
	in := &inputs{}
	if withFile {
		s := muxModel(fmt.Sprintf("price-%d", seed), sz.fileEntries, ss[0])
		path := filepath.Join(dir, "trace.betr")
		if err := writeBETR(path, s); err != nil {
			return nil, err
		}
		ref, err := reference(s)
		if err != nil {
			return nil, err
		}
		in.file = &fileInput{stream: s, path: path, ref: ref}
	}
	if withBodies {
		for i := 0; i < sz.smallBases+sz.largeBases; i++ {
			n := sz.smallEntries
			if i >= sz.smallBases {
				n = sz.largeEntries
			}
			b, err := makeBody(muxModel("", n, ss[1+i]))
			if err != nil {
				return nil, err
			}
			if i < sz.smallBases {
				in.small = append(in.small, b)
			} else {
				in.large = append(in.large, b)
			}
		}
	}
	return in, nil
}

func writeBETR(path string, s *trace.Stream) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func makeBody(s *trace.Stream) (*uploadBody, error) {
	placeholder := bytes.Repeat([]byte{'x'}, uploadNameLen)
	s.Name = string(placeholder)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, s); err != nil {
		return nil, err
	}
	raw := buf.Bytes()
	at := bytes.Index(raw, placeholder)
	if at < 0 {
		return nil, fmt.Errorf("perfbench: stream name not found in BETR header")
	}
	ref, err := reference(s)
	if err != nil {
		return nil, err
	}
	return &uploadBody{
		stream: s,
		prefix: raw[:at:at],
		suffix: raw[at+uploadNameLen:],
		ref:    ref,
	}, nil
}

// newCodec builds one of the paper's codes with the paper's options.
func newCodec(name string) (codec.Codec, error) {
	return codec.New(name, workload.Width, core.DefaultOptions)
}

// reference prices s with the codec.Run oracle for every paper code,
// the codes spread over GOMAXPROCS goroutines.
func reference(s *trace.Stream) ([]codec.Result, error) {
	out := make([]codec.Result, len(paperCodes))
	errs := make([]error, len(paperCodes))
	next := make(chan int, len(paperCodes))
	for i := range paperCodes {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c, err := newCodec(paperCodes[i])
				if err == nil {
					out[i], err = codec.Run(c, s)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkResults compares results against the oracle: Transitions and
// Cycles always, PerLine when perLine is set.
func checkResults(got, want []codec.Result, perLine bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("parity: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Codec != w.Codec || g.Transitions != w.Transitions || g.Cycles != w.Cycles {
			return fmt.Errorf("parity: %s: transitions %d cycles %d, oracle %s: %d, %d",
				g.Codec, g.Transitions, g.Cycles, w.Codec, w.Transitions, w.Cycles)
		}
		if perLine {
			if len(g.PerLine) != len(w.PerLine) {
				return fmt.Errorf("parity: %s: %d per-line counts, oracle %d", g.Codec, len(g.PerLine), len(w.PerLine))
			}
			for l := range w.PerLine {
				if g.PerLine[l] != w.PerLine[l] {
					return fmt.Errorf("parity: %s: line %d: %d transitions, oracle %d", g.Codec, l, g.PerLine[l], w.PerLine[l])
				}
			}
		}
	}
	return nil
}
