package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Streaming multi-codec fan-out. EvaluateStreaming reads a trace
// exactly once and prices every codec concurrently: a single producer
// parses chunks, packs them into encoder symbols once, and broadcasts
// each pooled, reference-counted block to one bounded channel per codec
// worker, where a codec.ShardPricer (the one pricing loop) prices it.
// Backpressure is structural — when the slowest worker falls Depth
// chunks behind, the producer blocks, so peak memory is
//
//	O(codecs × Depth × chunkLen)
//
// symbols regardless of trace length. This is the evaluation path for
// traces read from files and uploads, which are never materialized.

// DefaultFanoutDepth is the per-codec bounded channel depth: how many
// chunks a fast worker may run ahead of the slowest one.
const DefaultFanoutDepth = 4

// FanoutConfig tunes EvaluateStreaming.
type FanoutConfig struct {
	// Depth is the per-codec channel depth in chunks (DefaultFanoutDepth
	// if <= 0).
	Depth int
	// Verify selects decode round-trip checking per worker; the zero
	// value is codec.VerifyFull, mirroring RunOpts.
	Verify codec.VerifyMode
	// PerLine requests per-line transition counts in every Result.
	PerLine bool
	// Kernel selects the pricing kernel per worker (codec.KernelAuto by
	// default): plane-capable codecs price on the bit-sliced path, the
	// rest on their scalar batch kernels, under the same routing rules
	// as codec.RunOpts.Kernel.
	Kernel codec.Kernel
}

// symBlock is one chunk's worth of encoder symbols, shared read-only by
// all workers and returned to the pool by the last Release.
type symBlock struct {
	syms []codec.Symbol
	refs atomic.Int32
}

var symBlockPool = sync.Pool{New: func() any {
	return &symBlock{syms: make([]codec.Symbol, 0, trace.DefaultChunkLen)}
}}

func (b *symBlock) release() {
	n := b.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("core: symBlock released more times than retained")
	}
	b.syms = b.syms[:0]
	symBlockPool.Put(b)
}

// streamWorker prices one codec over the broadcast blocks.
type streamWorker struct {
	c  codec.Codec
	p  *codec.ShardPricer
	in chan *symBlock
}

// run drains the worker's channel; after a verification failure it
// keeps draining (releasing blocks) so the producer can never deadlock
// on a dead consumer. Channel waits are timed only while the histogram
// is live. parent is the evaluation's root span handle (a value, so the
// copy into each worker goroutine is race-free); consumed blocks record
// as its encode-stage children.
func (w *streamWorker) run(wg *sync.WaitGroup, m *fanoutMetrics, parent obs.SpanHandle) {
	defer wg.Done()
	timed := m.workerWaitNs != nil
	blkIdx := 0
	for {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		blk, ok := <-w.in
		if timed {
			m.workerWaitNs.Observe(time.Since(t0).Nanoseconds())
		}
		if !ok {
			return
		}
		if w.p.Err() == nil {
			sp := parent.Child("core.worker", obs.StageEncode).WithCodec(w.c.Name()).WithChunk(blkIdx)
			w.p.ConsumeSymbols(blk.syms)
			sp.EndErr(w.p.Err())
		} else {
			m.drainEvents.Inc()
		}
		blkIdx++
		blk.release()
	}
}

// EvaluateStreaming reads the trace once and evaluates every named
// codec concurrently, returning results in the order of codes. width is
// the payload width for codec construction (0 means core.Width; pass
// r.Width() to honor the trace header). The reader is consumed to
// io.EOF; on any error (reader or codec verification) the already-read
// prefix is discarded and the first error in deterministic order
// (reader first, then codes order) is returned.
func EvaluateStreaming(r trace.ChunkReader, width int, codes []string, opts codec.Options, cfg FanoutConfig) ([]codec.Result, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("core: no codecs to evaluate")
	}
	if width <= 0 {
		width = Width
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = DefaultFanoutDepth
	}
	root := obs.StartSpan("core.evaluate_streaming", obs.StageEval).WithStream(r.Name())
	ropts := codec.RunOpts{Verify: cfg.Verify, PerLine: cfg.PerLine, Kernel: cfg.Kernel}
	workers := make([]*streamWorker, 0, len(codes))
	for _, code := range codes {
		c, err := codec.New(code, width, opts)
		if err == nil {
			w := &streamWorker{c: c, in: make(chan *symBlock, depth)}
			w.p = codec.NewShardPricer([]codec.Codec{c}, codec.Boundary{First: true}, nil, 0, ropts)
			workers = append(workers, w)
			err = w.p.Err()
		}
		if err != nil {
			// Fail before reading: a codec that cannot be built or
			// cannot price under cfg would fail the whole evaluation.
			for _, w := range workers {
				w.p.Finish()
			}
			root.EndErr(err)
			return nil, err
		}
	}
	m := fanoutBinding.Get()
	m.depth.Set(int64(depth))
	m.workers.Set(int64(len(workers)))
	timed := m.sendWaitNs != nil
	var wg sync.WaitGroup
	wg.Add(len(workers))
	for _, w := range workers {
		go w.run(&wg, m, root)
	}
	var readErr error
	var entries int64
	chunkN := 0
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		bsp := root.Child("core.broadcast", obs.StageRead).WithChunk(chunkN)
		chunkN++
		entries += int64(ch.Len())
		blk := symBlockPool.Get().(*symBlock)
		if cap(blk.syms) < ch.Len() {
			blk.syms = make([]codec.Symbol, 0, ch.Len())
		}
		syms := blk.syms[:ch.Len()]
		for i, a := range ch.Addrs {
			syms[i] = codec.Symbol{Addr: a, Sel: ch.Kinds[i] == trace.Instr}
		}
		blk.syms = syms
		ch.Release()
		blk.refs.Store(int32(len(workers)))
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		for _, w := range workers {
			w.in <- blk
		}
		if timed {
			m.sendWaitNs.Observe(time.Since(t0).Nanoseconds())
		}
		m.broadcasts.Inc()
		bsp.End()
	}
	for _, w := range workers {
		close(w.in)
	}
	wg.Wait()
	// Every pricer finishes (returning its pooled buffers); the first
	// error in deterministic order wins: reader first, then codes order.
	err := readErr
	buses := make([]*bus.Bus, len(workers))
	for i, w := range workers {
		b, perr := w.p.Finish()
		if err == nil {
			err = perr
		}
		if perr == nil {
			buses[i] = b[0]
		}
	}
	if err != nil {
		root.EndErr(err)
		return nil, err
	}
	rsp := root.Child("core.reduce", obs.StageReduce)
	stream := r.Name()
	results := make([]codec.Result, len(workers))
	for i, w := range workers {
		results[i] = codec.ResultOf(w.c, stream, buses[i])
		codec.RecordRun(results[i].Codec, entries, results[i].Transitions)
	}
	rsp.End()
	root.End()
	return results, nil
}
