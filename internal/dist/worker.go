package dist

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// WorkerOpts tunes ServeWorker.
type WorkerOpts struct {
	// FailAfter, when positive, makes the worker exit without replying
	// once it has priced that many jobs — the fault injection knob
	// behind the kill-a-worker-mid-sweep tests and the CLI's
	// -failafter flag. The coordinator sees a dead pipe with a job in
	// flight, exactly like a real crash.
	FailAfter int
	// StallAfter, when positive, makes the worker go silent once it
	// has priced that many jobs: it keeps reading frames (so the
	// coordinator's pipelined sends never block) but answers nothing,
	// not even pings — the fault injection knob behind the
	// heartbeat-timeout tests. A crash looks like EOF; a stall looks
	// like a wedged peer.
	StallAfter int
	// Resolve, when non-nil, maps Job.TracePath references to local
	// filesystem paths before mapping. The /dist endpoint uses it to
	// confine workers to the peer's content-addressed trace store
	// ("sha256:..." refs only); nil means paths are used as-is.
	Resolve func(ref string) (string, error)
}

// errFailInjected is returned by ServeWorker when FailAfter trips; the
// process wrapper turns it into a silent nonzero exit.
var errFailInjected = fmt.Errorf("dist: injected worker failure")

// ServeWorker runs the worker side of the shard protocol over the
// given byte streams (stdin/stdout for a real worker process, a
// hijacked TCP connection on a busencd peer, an in-memory pipe in
// tests): announce with a hello, then price every job the coordinator
// sends until shutdown or EOF. The coordinator pipelines: jobs arrive
// ahead of the results for earlier ones, and pings arrive while a
// shard is pricing — so a reader goroutine keeps draining frames
// (answering pings immediately) while the pricer works through the
// job queue in order. Trace views are mmap'd once per path and shared
// read-only through the page cache — a worker never copies shard
// bytes.
func ServeWorker(r io.Reader, w io.Writer, opts WorkerOpts) error {
	c := newConn(r, w)
	var wmu sync.Mutex // hello/pong/result writes interleave across goroutines
	send := func(m msg) error {
		wmu.Lock()
		defer wmu.Unlock()
		return c.send(m)
	}
	hostname, _ := os.Hostname()
	if err := send(msg{Type: msgHello, Version: ProtoVersion, PID: os.Getpid(), Host: hostname}); err != nil {
		return err
	}
	views := map[string]mappedView{}
	defer func() {
		for _, v := range views {
			v.closer.Close()
		}
	}()

	var stalled atomic.Bool
	var ct connTrace // the connection-bracket span for harvested sweeps
	defer ct.finish()
	jobs := make(chan *Job, 64)
	errc := make(chan error, 1)
	done := make(chan struct{})
	defer close(done) // unblocks the reader if the pricer exits first
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	go func() {
		defer close(jobs)
		for {
			m, err := c.recv()
			if err != nil {
				if err != io.EOF {
					fail(err)
				}
				return
			}
			switch m.Type {
			case msgPing:
				if stalled.Load() {
					continue
				}
				if err := send(msg{Type: msgPong, Now: time.Now().UnixNano()}); err != nil {
					fail(err)
					return
				}
			case msgSpans:
				if stalled.Load() {
					continue
				}
				// The coordinator only asks once its jobs are all
				// answered; close the connection-bracket span so the
				// dump includes it.
				ct.finish()
				if err := send(msg{Type: msgSpans, Spans: spanDump(m.Trace)}); err != nil {
					fail(err)
					return
				}
			case msgShutdown:
				return
			case msgJob:
				if m.Job == nil {
					fail(fmt.Errorf("dist: job frame without a job"))
					return
				}
				select {
				case jobs <- m.Job:
				case <-done:
					return
				}
			default:
				fail(fmt.Errorf("dist: unexpected %q frame", m.Type))
				return
			}
		}
	}()

	priced := 0
	for j := range jobs {
		if opts.FailAfter > 0 && priced >= opts.FailAfter {
			return errFailInjected
		}
		if opts.StallAfter > 0 && priced >= opts.StallAfter {
			stalled.Store(true)
			continue // swallow the job; keep draining frames silently
		}
		ct.begin(j.Trace)
		sp := obs.StartSpanCtx("dist.shard_price", obs.StageEncode,
			obs.SpanContext{Trace: j.Trace, Parent: j.Span}).WithShard(j.Shard).WithStream(j.Stream)
		res := priceJob(j, views, opts.Resolve, sp)
		if res.Err != "" {
			sp.EndErr(fmt.Errorf("%s", res.Err))
		} else {
			sp.End()
		}
		priced++
		if err := send(msg{Type: msgResult, Result: res}); err != nil {
			return err
		}
	}
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// connTrace brackets one worker connection's traced lifetime with a
// dist.worker_conn span: begun on the first job that carries trace
// context, ended right before the spans dump (or on connection close).
// The span exists so every worker's pid lane in the merged timeline is
// covered end to end, not just during shard pricing — tracecheck's
// per-lane -mincover leans on it. begin also turns tracing on in
// worker processes that were started without it: the coordinator's
// choice to harvest is the worker's signal to record.
type connTrace struct {
	mu   sync.Mutex
	sp   obs.SpanHandle
	open bool
}

func (ct *connTrace) begin(trace string) {
	if trace == "" {
		return
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.open {
		return
	}
	if !obs.TracingEnabled() {
		obs.EnableTracing(obs.TracerConfig{})
	}
	ct.sp = obs.StartSpanCtx("dist.worker_conn", obs.StageEval, obs.SpanContext{Trace: trace})
	ct.open = true
}

func (ct *connTrace) finish() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.open {
		ct.sp.End()
		ct.open = false
	}
}

type mappedView struct {
	data   []byte
	closer io.Closer
}

// priceJob prices one shard for every codec in the job, in one pass:
// the shard's byte range streams through a single chunk loop, each
// chunk decoded once and handed to one codec.ShardPricer for every
// codec (see its doc for the shared packing and plane transpose). Any
// error — resolving or opening the trace, decoding the range, a
// verification mismatch — is reported in the result rather than
// killing the worker, so a bad shard fails the sweep through the
// ordered merge (lowest shard wins) instead of looking like a worker
// crash. sp is the shard-level span (inert when the sweep is not
// harvesting spans); each codec gets a dist.codec_price child, and
// since the codecs price interleaved chunk by chunk, those children
// overlap and each spans the whole pass.
func priceJob(j *Job, views map[string]mappedView, resolve func(string) (string, error), sp obs.SpanHandle) *ShardResult {
	res := &ShardResult{Shard: j.Shard}
	v, ok := views[j.TracePath]
	if !ok {
		path := j.TracePath
		if resolve != nil {
			p, err := resolve(j.TracePath)
			if err != nil {
				res.Err = err.Error()
				return res
			}
			path = p
		}
		data, closer, err := trace.MapBytes(path)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		v = mappedView{data: data, closer: closer}
		views[j.TracePath] = v
	}
	r, err := trace.NewMemRangeReader(v.data, j.Stream, j.Width, j.Cut, j.N, j.TracePath, nil)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	bd := codec.Boundary{First: j.Cut.Entry == 0}
	if !bd.First {
		bd.Prev = trace.Entry{Addr: j.Cut.PrevAddr, Kind: j.Cut.PrevKind}
		if j.Cut.Entry >= 2 {
			bd.SeedSym = codec.SymbolOf(trace.Entry{Addr: j.Cut.Prev2Addr, Kind: j.Cut.Prev2Kind})
			bd.HaveSeedSym = true
		}
	}
	codecs := make([]codec.Codec, len(j.Codecs))
	states := make([]codec.State, len(j.Codecs))
	spans := make([]obs.SpanHandle, len(j.Codecs))
	endSpans := func(err error) {
		for _, csp := range spans {
			csp.EndErr(err)
		}
	}
	for i, cj := range j.Codecs {
		spans[i] = sp.Child("dist.codec_price", obs.StageEncode).WithCodec(cj.Spec.Name)
		c, err := cj.Spec.New()
		if err == nil && !bd.First && len(cj.State) > 0 {
			states[i], err = codec.UnmarshalState(cj.State)
		}
		if err != nil {
			endSpans(err)
			res.Err = err.Error()
			return res
		}
		codecs[i] = c
	}
	p := codec.NewShardPricer(codecs, bd, states, int(j.Cut.Entry), codec.RunOpts{
		Verify:  codec.VerifyMode(j.Verify),
		PerLine: j.PerLine,
		Kernel:  codec.Kernel(j.Kernel),
	})
	for {
		ch, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			p.Finish()
			endSpans(err)
			res.Err = err.Error()
			return res
		}
		p.Consume(ch.Addrs, ch.Kinds)
		ch.Release()
	}
	buses, err := p.Finish()
	endSpans(err)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Stats = make(map[string]bus.Stats, len(j.Codecs))
	for i, cj := range j.Codecs {
		res.Stats[cj.Spec.Name] = buses[i].Stats()
	}
	return res
}
