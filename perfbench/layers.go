package main

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/dist"
	"busenc/internal/serve"
	"busenc/internal/trace"
)

// The traced run: every per-layer metric, each measured by timing one
// layer's public call from outside, on the inputs of the workload the
// layer explains (the file for the trace, codec, bus, core, roofline
// and dist rows; the upload bodies for the serve rows). Single-threaded
// calls are timed in process CPU, which a neighbour holding a core does
// not inflate; parallel calls (dist sweeps, the serve loop) in wall
// time. Every output the oracle covers is checked like a timed op's.

// layerRun collects the traced run's metrics and op accounting.
type layerRun struct {
	sz  sizes
	rep *report
	n   float64 // entries in the file
}

// cpuNs times fn reps times and returns the median process CPU
// nanoseconds per entry.
func (l *layerRun) cpuNs(entries float64, fn func() error) float64 {
	return l.timed(entries, fn, func(s sample) time.Duration { return s.cpu })
}

// wallNs is cpuNs in wall time.
func (l *layerRun) wallNs(entries float64, fn func() error) float64 {
	return l.timed(entries, fn, func(s sample) time.Duration { return s.wall })
}

// wallMs is the median wall time of fn in milliseconds.
func (l *layerRun) wallMs(fn func() error) float64 { return l.wallNs(1e6, fn) }

func (l *layerRun) timed(entries float64, fn func() error, pick func(sample) time.Duration) float64 {
	xs := make([]float64, l.sz.layerReps)
	for i := range xs {
		s, err := measure(fn)
		l.rep.record(err)
		xs[i] = float64(pick(s)) / entries
	}
	return median(xs)
}

func runLayers(sz sizes, in *inputs, dir string, d time.Duration) (*report, error) {
	l := &layerRun{sz: sz, rep: &report{metrics: map[string]float64{}}, n: float64(in.file.stream.Len())}
	if err := l.priceFileLayers(in.file); err != nil {
		return nil, err
	}
	if err := l.sweepLayers(in.file, dir); err != nil {
		return nil, err
	}
	if err := l.serveLayers(in, dir, d); err != nil {
		return nil, err
	}
	return l.rep, nil
}

// priceFileLayers: decode, the aggregate kernels, the bus counters,
// the fan-out's own cost and the roofline, all on the file.
func (l *layerRun) priceFileLayers(f *fileInput) error {
	m := l.rep.metrics
	var addrSum uint64
	for _, e := range f.stream.Entries {
		addrSum += e.Addr
	}
	m["trace.decode_ns"] = l.cpuNs(l.n, func() error {
		r, closer, err := trace.OpenFile(f.path, nil)
		if err != nil {
			return err
		}
		defer closer.Close()
		var n int
		var sum uint64
		for {
			ch, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			n += ch.Len()
			for _, a := range ch.Addrs {
				sum += a
			}
			ch.Release()
		}
		if n != f.stream.Len() || sum != addrSum {
			return fmt.Errorf("decode: %d entries, address sum %#x; want %d, %#x", n, sum, f.stream.Len(), addrSum)
		}
		return nil
	})

	runFast := func(i int, opts codec.RunOpts) func() error {
		return func() error {
			c, err := newCodec(paperCodes[i])
			if err != nil {
				return err
			}
			got, err := codec.RunFast(c, f.stream, opts)
			if err != nil {
				return err
			}
			return checkResults([]codec.Result{got}, f.ref[i:i+1], opts.PerLine)
		}
	}
	var aggSum float64
	for i, name := range paperCodes {
		v := l.cpuNs(l.n, runFast(i, codec.RunOpts{Verify: codec.VerifySampled, Kernel: codec.KernelAuto}))
		m["codec."+name+".agg_ns"] = v
		aggSum += v
	}
	for i, name := range paperCodes[:2] { // binary, gray: the plane-capable codes
		m["codec."+name+".agg_scalar_ns"] = l.cpuNs(l.n, runFast(i, codec.RunOpts{Verify: codec.VerifySampled, Kernel: codec.KernelScalar}))
	}
	for i, name := range paperCodes {
		m["codec."+name+".perline_ns"] = l.cpuNs(l.n, runFast(i, codec.RunOpts{Verify: codec.VerifySampled, Kernel: codec.KernelAuto, PerLine: true}))
	}

	// core.fanout_ns is what EvaluateStreaming costs beyond decoding
	// once and running every aggregate kernel: symbol packing, the
	// broadcast and the channel hand-offs.
	fan := l.cpuNs(l.n, func() error {
		got, err := priceFile(f.path)
		if err == nil {
			err = checkResults(got, f.ref, false)
		}
		return err
	})
	m["core.fanout_ns"] = fan - m["trace.decode_ns"] - aggSum

	// The bus counters and the roofline run over binary's encoded
	// words, 8 bytes per entry; binary's oracle checks all of them.
	bin, err := newCodec("binary")
	if err != nil {
		return err
	}
	words := codec.EncodeAll(bin, f.stream)
	want := f.ref[0]
	count := func(b *bus.Bus, feed func(*bus.Bus), perLine bool) func() error {
		return func() error {
			b.Reset()
			feed(b)
			got := codec.Result{Codec: want.Codec, Transitions: b.Transitions(), Cycles: b.Cycles(), PerLine: b.PerLine()}
			return checkResults([]codec.Result{got}, []codec.Result{want}, perLine)
		}
	}
	agg, pl := bus.NewAggregate(bin.BusWidth()), bus.New(bin.BusWidth())
	m["bus.count_agg_ns"] = l.cpuNs(l.n, count(agg, func(b *bus.Bus) { b.Accumulate(words) }, false))
	m["bus.count_perline_ns"] = l.cpuNs(l.n, count(pl, func(b *bus.Bus) { b.Accumulate(words) }, true))
	m["bus.count_bitsliced_ns"] = l.cpuNs(l.n, count(pl, func(b *bus.Bus) { b.AccumulateBitsliced(words) }, true))

	// Roofline: a copy of the words, and one XOR+popcount pass over
	// them — the counting floor every transition counter is bound by.
	// Each rep repeats the pass so it lasts long enough to time.
	const passes = 8
	dst := make([]uint64, len(words))
	m["roofline.memmove_ns"] = l.cpuNs(l.n*passes, func() error {
		for p := 0; p < passes; p++ {
			copy(dst, words)
		}
		if !equalWords(dst, words) {
			return fmt.Errorf("roofline: copy differs from its source")
		}
		return nil
	})
	m["roofline.xor_popcount_ns"] = l.cpuNs(l.n*passes, func() error {
		var total int64
		for p := 0; p < passes; p++ {
			total = xorPopcount(words)
		}
		if total != want.Transitions {
			return fmt.Errorf("roofline: XOR+popcount counts %d transitions, oracle %d", total, want.Transitions)
		}
		return nil
	})
	return nil
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// xorPopcount counts the bit transitions between consecutive words.
func xorPopcount(words []uint64) int64 {
	var total int64
	for i := 1; i < len(words); i++ {
		total += int64(bits.OnesCount64(words[i] ^ words[i-1]))
	}
	return total
}

// sweepLayers: the planner's index scan and the boundary seeding at
// the sweep's cuts, then the sweep itself with the default window,
// lock-step, and over in-process pipe workers.
func (l *layerRun) sweepLayers(f *fileInput, dir string) (err error) {
	m := l.rep.metrics
	shards := 4 * sweepPeersN // dist.Sweep's default for two peers
	data, closer, err := trace.MapBytes(f.path)
	if err != nil {
		return err
	}
	defer closer.Close()
	var cuts []int
	m["trace.index_ns"] = l.cpuNs(l.n, func() error {
		idx, err := trace.IndexBETR(data, f.path, shards)
		if err != nil {
			return err
		}
		if idx.Total != int64(f.stream.Len()) || len(idx.Cuts) != shards+1 {
			return fmt.Errorf("index: %d entries in %d cuts, want %d in %d", idx.Total, len(idx.Cuts), f.stream.Len(), shards+1)
		}
		cuts = cuts[:0]
		for _, c := range idx.Cuts {
			cuts = append(cuts, int(c.Entry))
		}
		return nil
	})
	m["codec.seed_ns"] = l.cpuNs(l.n, func() error {
		for _, name := range paperCodes {
			c, err := newCodec(name)
			if err != nil {
				return err
			}
			if _, err := codec.BoundaryStates(c, f.stream.Entries, cuts); err != nil {
				return err
			}
		}
		return nil
	})

	specs, err := sweepSpecs()
	if err != nil {
		return err
	}
	peers, err := startPeers(dir, sweepPeersN)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopAll(peers); serr != nil && err == nil {
			err = serr
		}
	}()
	sweep := func(opts dist.Opts) func() error {
		return func() error {
			got, err := dist.Sweep(f.path, opts)
			if err == nil {
				err = checkResults(got, f.ref, true)
			}
			return err
		}
	}
	// The cold sweep ships the trace; it is set-up, not a layer cost.
	l.rep.record(sweep(sweepOpts(specs, peers, nil))())

	var ns *dist.NetStats
	m["dist.sweep_ns"] = l.wallNs(l.n, func() error {
		ns = &dist.NetStats{}
		return sweep(sweepOpts(specs, peers, ns))()
	})
	m["dist.frames"] = float64(ns.FramesSent.Load() + ns.FramesRecv.Load())
	m["dist.bytes_sent"] = float64(ns.BytesSent.Load())
	m["dist.bytes_recv"] = float64(ns.BytesRecv.Load())
	m["dist.ship_bytes"] = float64(ns.TraceShipBytes.Load())
	m["dist.redispatches"] = float64(ns.Redispatches.Load())
	if b := ns.TraceShipBytes.Load(); b != 0 {
		l.rep.record(fmt.Errorf("warm sweep shipped %d trace bytes", b))
	}

	var serial float64
	for _, name := range paperCodes {
		serial += m["codec."+name+".perline_ns"]
	}
	m["dist.serial_ns"] = serial
	m["dist.speedup"] = serial / m["dist.sweep_ns"]

	lock := sweepOpts(specs, peers, nil)
	lock.Window = 1
	m["dist.lockstep_ns"] = l.wallNs(l.n, sweep(lock))

	pipe := sweepOpts(specs, nil, nil)
	pipe.Workers = sweepPeersN
	pipe.Spawn = dist.InProcSpawner(nil)
	m["dist.pipe_ns"] = l.wallNs(l.n, sweep(pipe))
	return nil
}

// serveLayers: ingest, the evaluator and the cache called directly,
// then the serve-mixed loop for half the run, timed per request class.
func (l *layerRun) serveLayers(in *inputs, dir string, d time.Duration) (err error) {
	m := l.rep.metrics
	small := in.small[0]
	store, err := serve.NewStore(filepath.Join(dir, "layer-store"))
	if err != nil {
		return err
	}
	uploads := 0
	var digest string
	m["serve.ingest_ms"] = l.wallMs(func() error {
		uploads++
		meta, err := store.Ingest(bytes.NewReader(small.bytes(fmt.Sprintf("i%0*d", uploadNameLen-1, uploads))), 0)
		if err == nil && meta.Entries != int64(small.stream.Len()) {
			err = fmt.Errorf("ingest: %d entries stored, want %d", meta.Entries, small.stream.Len())
		}
		digest = meta.Digest
		return err
	})
	eval := serve.DefaultEvaluator(store, core.DefaultOptions)
	spec := serve.JobSpec{Source: digest, Codes: paperCodes}
	var results []codec.Result
	m["serve.evaluate_ms"] = l.wallMs(func() error {
		var err error
		if results, _, _, err = eval(spec); err == nil {
			err = checkResults(results, small.ref, false)
		}
		return err
	})
	cache := serve.NewCache(0)
	key := serve.NewCacheKey(digest, paperCodes, spec.Stride, spec.Kernel)
	cache.Put(key, results)
	const gets = 1 << 16
	m["serve.cache_get_us"] = 1e-3 * l.wallNs(gets, func() error {
		for i := 0; i < gets; i++ {
			if _, ok := cache.Get(key); !ok {
				return fmt.Errorf("cache: stored key missing")
			}
		}
		return nil
	})

	dmn, err := startDaemon(dir, true)
	if err != nil {
		return err
	}
	mx := newMixer(in, dmn, runtime.GOMAXPROCS(0))
	defer func() {
		mx.close()
		if serr := dmn.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	var its []iteration
	start := time.Now()
	for len(its) == 0 || time.Since(start) < d/2 {
		_, b := mx.burst(l.sz.burst)
		its = append(its, b...)
	}
	elapsed := time.Since(start)
	var upload, sync, async, hit []time.Duration
	var rejected, evals, cached int
	for _, it := range its {
		l.rep.record(it.err)
		evals += it.evals
		cached += it.cached
		if it.status == http.StatusServiceUnavailable || it.status == http.StatusTooManyRequests {
			rejected++
		}
		if it.err != nil {
			continue
		}
		upload = append(upload, it.upload)
		hit = append(hit, it.hit)
		if it.async {
			async = append(async, it.miss)
		} else {
			sync = append(sync, it.miss)
		}
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	m["serve.iter_per_s"] = float64(len(its)) / elapsed.Seconds()
	m["serve.upload_p50_ms"] = ms(durQuantile(upload, 0.5))
	m["serve.sync_p50_ms"] = ms(durQuantile(sync, 0.5))
	m["serve.sync_p99_ms"] = ms(durQuantile(sync, 0.99))
	m["serve.async_p50_ms"] = ms(durQuantile(async, 0.5))
	m["serve.hit_p50_ms"] = ms(durQuantile(hit, 0.5))
	m["serve.http_ms"] = m["serve.sync_p50_ms"] - m["serve.evaluate_ms"]
	m["serve.cache_hit_ratio"] = float64(cached) / float64(evals)
	m["serve.rejected"] = float64(rejected)

	var slo serve.SLOSnapshot
	if _, err := mx.clients[0].do(http.MethodGet, "/slo", nil, &slo); err != nil {
		return err
	}
	var wait int64
	for _, q := range slo.QueueWait {
		if q.P50Ns > wait {
			wait = q.P50Ns
		}
	}
	m["serve.queue_wait_ms"] = float64(wait) / 1e6
	return nil
}
