package dist

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"busenc/internal/bus"
	"busenc/internal/obs"
)

// Pipelined dispatch. Every slot — a local worker process or a TCP
// busencd peer — keeps up to Window shards in flight at once, and never
// more: jobs are written ahead of results, so transport latency
// overlaps with pricing instead of serializing it, while a slot with a
// full window stops taking work so the queue reaches the other slots.
// Shards arrive on one shared work queue as the scan (scan.go)
// publishes them; when a worker dies (EOF, protocol error, or heartbeat
// timeout) its in-flight shards go back on the queue and any slot —
// typically a different one — re-prices them, bounded by the per-shard
// retry budget. Determinism is untouched: results land in fixed per-shard
// slots and merge in ascending shard order, so the schedule (and the
// window size) cannot change the totals.

const (
	// DefaultWindow is the per-slot in-flight bound when Opts.Window is
	// unset. Four shards hides one round trip of latency at typical
	// shard runtimes without letting a slow peer hoard the queue.
	DefaultWindow = 4
	// DefaultHeartbeatInterval is how often an in-flight slot pings its
	// worker when Opts.HeartbeatInterval is unset.
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// DefaultHeartbeatTimeout is how long a slot tolerates total
	// silence (no result, no pong) before declaring the worker dead and
	// re-dispatching its shards.
	DefaultHeartbeatTimeout = 10 * time.Second
)

// Delivery kinds: every slot-to-coordinator event is one of these.
const (
	dResult   = iota // a shard priced (stats or a shard-level error)
	dRequeue         // a shard orphaned by a worker death or spawn failure
	dSlotDead        // a slot retired after exhausting its spawn budget
	dScanErr         // the scan failed: a corrupt trace or a journal write
)

// delivery is one event funneled back to the coordinator goroutine,
// which owns all shard bookkeeping (attempts, journal, completion).
type delivery struct {
	kind      int
	shard     int
	slot      int
	stats     map[string]bus.Stats
	err       error
	spawnFail bool // dRequeue: the spawn failed, no worker ever held the shard
}

// slotConfig describes one pool position. Local workers carry just the
// spawner; peer slots add the digest ref that replaces Job.TracePath
// on the wire (the peer resolves it in its content-addressed store).
type slotConfig struct {
	spawn Spawner
	ref   string
}

// dispatcher owns the shared state of one sweep's scan and dispatch.
type dispatcher struct {
	root  obs.SpanHandle
	plan  *planned
	opts  Opts
	prior *journalState
	jr    *journal
	// states[k] is shard k's boundary states, written by the scan
	// before k is published (the work queue orders the hand-off).
	states []map[string][]byte

	// Scan state (scan.go). sweeps are the prefix-dependent codecs'
	// state-only sweeps; fromJournal means the journal supplied every
	// state and the scan only finds cuts.
	sweeps      []seedSweep
	fromJournal bool
	scanDone    chan struct{}

	window     int
	hbEvery    time.Duration
	hbTimeout  time.Duration
	retryLimit int
	net        *NetStats
	harvest    *SpanHarvest

	// work is the shard queue. Buffered to the shard count and never
	// closed: slots learn the sweep is over from stop, not from the
	// queue draining (the scan publishes into it progressively, and a
	// requeue can refill it at any time).
	work chan int
	// deliveries is buffered generously so slots rarely block handing
	// events back; deliver falls back to a stop-guarded send, so after
	// halt nothing can deadlock against the coordinator.
	deliveries chan delivery
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
}

func (d *dispatcher) halt() { d.stopOnce.Do(func() { close(d.stop) }) }

// deliver hands an event to the coordinator without ever deadlocking a
// slot: before halt the coordinator is draining, after halt the stop
// case lets the slot move on (post-halt events are opportunistic).
func (d *dispatcher) deliver(dl delivery) {
	select {
	case d.deliveries <- dl:
	default:
		select {
		case d.deliveries <- dl:
		case <-d.stop:
		}
	}
}

// recvFrame is one transport read, shipped from a slot's reader
// goroutine into its select loop.
type recvFrame struct {
	m   msg
	err error
}

// slot is one pool position, surviving the workers that fill it. All
// fields are owned by the slot's goroutine; communication happens over
// the dispatcher's channels.
type slot struct {
	d          *dispatcher
	id         int
	cfg        slotConfig
	gen        int
	spawnFails int
	t          Transport
	frames     chan recvFrame
	readerDead bool // the reader goroutine's terminal error frame was consumed
	inflight   map[int]obs.SpanHandle
	lastRecv   time.Time
	worker     string // "host/pid" of the current worker, from its hello
	pingSent   int64  // unix ns of the unanswered heartbeat ping, 0 when none
	// readySince is when the slot, with window capacity to spare, found
	// the queue empty while the scan was still publishing; zero when
	// it is not waiting on the scan.
	readySince time.Time
}

// recordClock funnels one clock-offset sample everywhere it is wanted:
// the caller's NetStats, the sweep's span harvest, and the gated
// dist.net.clock_* metrics.
func (sl *slot) recordClock(offsetNs, rttNs int64) {
	if sl.worker == "" {
		return
	}
	if sl.d.net != nil {
		sl.d.net.RecordClockSample(sl.worker, offsetNs, rttNs)
	}
	if sl.d.harvest != nil {
		sl.d.harvest.recordClock(sl.worker, offsetNs, rttNs)
	}
	recordClockSample(offsetNs, rttNs)
}

// run drives the slot until the sweep halts or its spawn budget is
// exhausted. A slot never spawns a worker before it has a shard for
// it, so an idle pool position costs nothing.
func (sl *slot) run() {
	defer sl.d.wg.Done()
	for {
		var first int
		sl.awaitScan()
		select {
		case <-sl.d.stop:
			return
		case first = <-sl.d.work:
		}
		sl.gotWork()
		if !sl.serveFrom(first) {
			return
		}
	}
}

// serveFrom prices shards on one worker life after another, beginning
// with the given shard. After a worker death the slot respawns eagerly
// (gen+1) so the pool recovers its parallelism before more work
// arrives. Returns false when the slot must retire: the sweep halted,
// or consecutive spawn failures exhausted the budget.
func (sl *slot) serveFrom(first int) bool {
	pending := first
	for {
		select {
		case <-sl.d.stop:
			if pending >= 0 {
				sl.d.deliver(delivery{kind: dRequeue, shard: pending, slot: sl.id, err: ErrStopped})
			}
			return false
		default:
		}
		if err := sl.ensure(); err != nil {
			RecordWorkerDeath()
			sl.gen++
			sl.spawnFails++
			if pending >= 0 {
				sl.d.deliver(delivery{kind: dRequeue, shard: pending, slot: sl.id, err: err, spawnFail: true})
			}
			if sl.spawnFails > sl.d.retryLimit {
				sl.d.deliver(delivery{kind: dSlotDead, slot: sl.id, err: err})
				return false
			}
			return true // back to run: wait for work before retrying the spawn
		}
		sl.spawnFails = 0
		died := sl.serve(pending)
		pending = -1
		if !died {
			return false
		}
	}
}

// ensure spawns and handshakes a worker if the slot has none.
func (sl *slot) ensure() error {
	if sl.t != nil {
		return nil
	}
	t, err := sl.cfg.spawn.Spawn(sl.id, sl.gen)
	if err != nil {
		return fmt.Errorf("dist: spawn worker %d (gen %d): %w", sl.id, sl.gen, err)
	}
	RecordWorkerSpawn()
	m, err := t.Recv()
	if err == nil && (m.Type != msgHello || m.Version != ProtoVersion) {
		err = fmt.Errorf("dist: worker %d: bad hello (type %q version %d, want %d)", sl.id, m.Type, m.Version, ProtoVersion)
	}
	var offset, rtt int64
	var sampled bool
	if err == nil {
		sl.worker = workerKey(m.Host, m.PID)
		offset, rtt, sampled, err = pingPong(t)
	}
	if err != nil {
		t.Close()
		return fmt.Errorf("dist: worker %d handshake: %w", sl.id, err)
	}
	if sampled {
		sl.recordClock(offset, rtt)
	}
	sl.t = t
	return nil
}

// pingPong is one synchronous heartbeat round trip, used only during
// the handshake (steady-state heartbeats are pipelined in serve). The
// pong's wall clock yields the slot's first clock-offset sample;
// sampled is false against a worker whose pong carried no clock.
func pingPong(t Transport) (offsetNs, rttNs int64, sampled bool, err error) {
	t0 := time.Now().UnixNano()
	if err := t.Send(msg{Type: msgPing}); err != nil {
		return 0, 0, false, err
	}
	m, err := t.Recv()
	t1 := time.Now().UnixNano()
	if err != nil {
		return 0, 0, false, err
	}
	if m.Type != msgPong {
		return 0, 0, false, fmt.Errorf("dist: %q in reply to ping", m.Type)
	}
	RecordHeartbeat()
	if m.Now == 0 {
		return 0, 0, false, nil
	}
	offsetNs, rttNs = clockOffset(t0, t1, m.Now)
	return offsetNs, rttNs, true, nil
}

// serve drives one worker life: keep the in-flight window full, match
// results to dispatched shards, ping on the heartbeat ticker and
// declare death on timeout. pending >= 0 is a shard to dispatch
// immediately. Returns true when the worker died (the caller respawns)
// and false when the sweep is halting.
func (sl *slot) serve(pending int) (died bool) {
	sl.inflight = make(map[int]obs.SpanHandle, sl.d.window)
	sl.frames = make(chan recvFrame, 2*sl.d.window+8)
	sl.readerDead = false
	sl.pingSent = 0
	go func(t Transport, frames chan<- recvFrame) {
		for {
			m, err := t.Recv()
			frames <- recvFrame{m, err}
			if err != nil {
				return
			}
		}
	}(sl.t, sl.frames)
	sl.lastRecv = time.Now()
	if pending >= 0 {
		if err := sl.dispatch(pending); err != nil {
			sl.die(err)
			return true
		}
	}
	ticker := time.NewTicker(sl.d.hbEvery)
	defer ticker.Stop()
	for {
		// Top up the window with whatever work is queued, without
		// blocking: latency hiding comes from writing jobs ahead.
		for len(sl.inflight) < sl.d.window {
			select {
			case sh := <-sl.d.work:
				sl.gotWork()
				if err := sl.dispatch(sh); err != nil {
					sl.die(err)
					return true
				}
				continue
			default:
			}
			break
		}
		// The window bounds what this slot holds: with it full, the
		// slot stops receiving, so queued shards reach the other
		// slots instead of piling up behind this one.
		work := sl.d.work
		if len(sl.inflight) >= sl.d.window {
			work = nil
		} else {
			sl.awaitScan()
		}
		if len(sl.inflight) == 0 {
			// Idle: block for work. No pings while idle — dispatch
			// resets the liveness epoch when work resumes.
			select {
			case <-sl.d.stop:
				sl.shutdown()
				return false
			case sh := <-work:
				sl.gotWork()
				if err := sl.dispatch(sh); err != nil {
					sl.die(err)
					return true
				}
			}
			continue
		}
		select {
		case <-sl.d.stop:
			sl.shutdown()
			return false
		case sh := <-work:
			sl.gotWork()
			if err := sl.dispatch(sh); err != nil {
				sl.die(err)
				return true
			}
		case f := <-sl.frames:
			if f.err != nil {
				sl.readerDead = true
				err := f.err
				if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
					err = fmt.Errorf("dist: worker %d exited with %d shard(s) in flight", sl.id, len(sl.inflight))
				}
				sl.die(err)
				return true
			}
			if dead := sl.onFrame(f.m); dead != nil {
				sl.die(dead)
				return true
			}
		case <-ticker.C:
			if time.Since(sl.lastRecv) > sl.d.hbTimeout {
				recordHeartbeatTimeout()
				if sl.d.net != nil {
					sl.d.net.HeartbeatTimeouts.Add(1)
				}
				sl.die(fmt.Errorf("dist: worker %d: heartbeat timeout (silent for %v with %d shard(s) in flight)",
					sl.id, sl.d.hbTimeout, len(sl.inflight)))
				return true
			}
			// Remember the send instant of at most one outstanding ping
			// so its pong yields a clock-offset sample; if an earlier
			// ping is still unanswered, keep its timestamp (pairing the
			// pong with the later send would understate the RTT).
			if sl.pingSent == 0 {
				sl.pingSent = time.Now().UnixNano()
			}
			if err := sl.t.Send(msg{Type: msgPing}); err != nil {
				sl.die(err)
				return true
			}
		}
	}
}

// awaitScan notes the start of a wait for work while the scan is still
// publishing: the slot has window capacity and the queue is empty, so
// the scan, not the pool, bounds the sweep right now.
func (sl *slot) awaitScan() {
	if sl.readySince.IsZero() && len(sl.d.work) == 0 && sl.d.scanning() {
		sl.readySince = time.Now()
	}
}

// gotWork ends a wait noted by awaitScan, publishing its length.
func (sl *slot) gotWork() {
	if !sl.readySince.IsZero() {
		recordReadyWait(time.Since(sl.readySince).Nanoseconds())
		sl.readySince = time.Time{}
	}
}

// onFrame handles one well-formed frame; a non-nil return is a
// protocol violation that kills the worker.
func (sl *slot) onFrame(m msg) error {
	switch m.Type {
	case msgPong:
		RecordHeartbeat()
		sl.lastRecv = time.Now()
		if m.Now != 0 && sl.pingSent != 0 {
			off, rtt := clockOffset(sl.pingSent, time.Now().UnixNano(), m.Now)
			sl.recordClock(off, rtt)
			sl.pingSent = 0
		}
		return nil
	case msgResult:
		if m.Result == nil {
			return fmt.Errorf("dist: worker %d: result frame without a result", sl.id)
		}
		sl.lastRecv = time.Now()
		sl.finish(*m.Result)
		return nil
	default:
		return fmt.Errorf("dist: worker %d: unexpected %q frame", sl.id, m.Type)
	}
}

// finish matches one result to its in-flight shard and delivers it. A
// result for a shard this life never dispatched (possible only after a
// desync) is dropped — the coordinator's duplicate guard would discard
// it anyway.
func (sl *slot) finish(res ShardResult) {
	sp, ok := sl.inflight[res.Shard]
	if !ok {
		return
	}
	delete(sl.inflight, res.Shard)
	var shardErr error
	if res.Err != "" {
		shardErr = errors.New(res.Err)
	}
	sp.EndErr(shardErr)
	sl.d.deliver(delivery{kind: dResult, shard: res.Shard, slot: sl.id, stats: res.Stats, err: shardErr})
}

// dispatch sends one shard to the live worker. The shard joins
// inflight before the send so a failed write still requeues it via
// die. Peer slots rewrite TracePath to the shipped digest ref.
func (sl *slot) dispatch(shard int) error {
	sp := sl.d.root.Child("dist.shard", obs.StageEncode).WithShard(shard)
	j := buildJob(sl.d.plan, sl.d.opts, shard, sl.d.states[shard])
	if sl.cfg.ref != "" {
		j.TracePath = sl.cfg.ref
	}
	if h := sl.d.harvest; h != nil {
		j.Trace = h.TraceID()
		j.Span = sp.Context().Parent // 0 when tracing is off; workers then root their spans
	}
	sl.inflight[shard] = sp
	sl.lastRecv = time.Now()
	return sl.t.Send(msg{Type: msgJob, Job: j})
}

// die declares the current worker dead: every in-flight shard goes
// back on the queue for any slot to re-price, the transport is reaped,
// and the generation advances for the respawn.
func (sl *slot) die(err error) {
	RecordWorkerDeath()
	for shard, sp := range sl.inflight {
		sp.EndErr(err)
		delete(sl.inflight, shard)
		sl.d.deliver(delivery{kind: dRequeue, shard: shard, slot: sl.id, err: err})
	}
	sl.reap()
	sl.gen++
}

// shutdown is the polite halt path: forward any results the worker
// already framed (a shard priced concurrently with the stop is still
// priced), harvest the worker's spans when the sweep is collecting
// them, send shutdown, reap.
func (sl *slot) shutdown() {
drain:
	for {
		select {
		case f := <-sl.frames:
			if f.err != nil {
				sl.readerDead = true
				break drain
			}
			if f.m.Type == msgResult && f.m.Result != nil {
				sl.finish(*f.m.Result)
			}
		default:
			break drain
		}
	}
	for shard, sp := range sl.inflight {
		sp.End()
		delete(sl.inflight, shard)
	}
	if h := sl.d.harvest; h != nil && !sl.readerDead {
		// The spans must cross the still-open connection before the
		// shutdown frame: pipe workers lose their recorder with the
		// process, and a TCP peer's connection-bracket span only closes
		// with the connection — the post-dispatch HTTP harvest could
		// race past it. Peers whose connection died are still picked up
		// by that HTTP pass (the dumps dedup by span ID).
		sl.harvestSpans(h)
	}
	sl.t.Send(msg{Type: msgShutdown})
	sl.reap()
}

// harvestSpans asks the live worker for its tagged spans and waits for
// the dump, forwarding any results still racing in. Bounded by the
// heartbeat timeout: a worker that dies mid-harvest costs its spans,
// never the sweep.
func (sl *slot) harvestSpans(h *SpanHarvest) {
	if sl.t.Send(msg{Type: msgSpans, Trace: h.TraceID()}) != nil {
		return
	}
	deadline := time.NewTimer(sl.d.hbTimeout)
	defer deadline.Stop()
	for {
		select {
		case f := <-sl.frames:
			if f.err != nil {
				sl.readerDead = true
				return
			}
			switch f.m.Type {
			case msgSpans:
				if f.m.Spans != nil {
					h.addDump(f.m.Spans)
					recordSpanHarvest(len(f.m.Spans.Spans))
				}
				return
			case msgResult:
				if f.m.Result != nil {
					sl.finish(*f.m.Result)
				}
			}
		case <-deadline.C:
			return
		}
	}
}

// reap closes the transport and drains the reader goroutine to its
// terminal error frame so it can never leak blocked on a full channel.
// When the terminal frame was already consumed (the death was observed
// through it) the reader has exited and there is nothing to drain.
func (sl *slot) reap() {
	sl.t.Close()
	for !sl.readerDead {
		f := <-sl.frames
		if f.err != nil {
			sl.readerDead = true
		}
	}
	sl.t = nil
	sl.frames = nil
}

// newDispatcher sets up one sweep's scan and dispatch over nslots
// slots; startScan and run then drive it, or abort tears it down.
func newDispatcher(root obs.SpanHandle, plan *planned, opts Opts, nslots int, prior *journalState, jr *journal) (*dispatcher, error) {
	retryLimit := opts.RetryLimit
	if retryLimit <= 0 {
		retryLimit = 1
	}
	window := opts.Window
	if window <= 0 {
		window = DefaultWindow
	}
	hbEvery := opts.HeartbeatInterval
	if hbEvery <= 0 {
		hbEvery = DefaultHeartbeatInterval
	}
	hbTimeout := opts.HeartbeatTimeout
	if hbTimeout <= 0 {
		hbTimeout = DefaultHeartbeatTimeout
	}
	shards := plan.shards
	d := &dispatcher{
		root: root, plan: plan, opts: opts, prior: prior, jr: jr,
		states:   make([]map[string][]byte, shards),
		scanDone: make(chan struct{}),
		window:   window, hbEvery: hbEvery, hbTimeout: hbTimeout,
		retryLimit: retryLimit, net: opts.Net, harvest: opts.Harvest,
		work:       make(chan int, shards),
		deliveries: make(chan delivery, 2*shards+nslots*(window+retryLimit+3)+16),
		stop:       make(chan struct{}),
	}
	if err := d.prepareScan(); err != nil {
		d.closeSweeps()
		return nil, err
	}
	return d, nil
}

// abort halts a dispatcher whose slots never started and waits for
// the scan to let go of the mapped view.
func (d *dispatcher) abort() {
	d.halt()
	<-d.scanDone
}

// run drives the slot pool over every shard the journal does not
// already hold, as the scan publishes them, and returns the per-shard
// stats slots (journal-recovered slots included). It returns only
// once the scan has finished with the mapped view.
func (d *dispatcher) run(cfgs []slotConfig) ([]map[string]bus.Stats, error) {
	opts, shards, prior, jr := d.opts, d.plan.shards, d.prior, d.jr
	retryLimit := d.retryLimit
	dsp := d.root.Child("dist.dispatch", obs.StageEval)
	stats := make([]map[string]bus.Stats, shards)
	shardErrs := make([]error, shards)
	var pendingShards []int
	for k := 0; k < shards; k++ {
		if st, ok := prior.done[k]; ok {
			stats[k] = st
			continue
		}
		pendingShards = append(pendingShards, k)
	}
	live := len(cfgs)
	for id, cfg := range cfgs {
		d.wg.Add(1)
		sl := &slot{d: d, id: id, cfg: cfg}
		go sl.run()
	}
	slotsDone := make(chan struct{})
	go func() { d.wg.Wait(); close(slotsDone) }()

	// attempts counts dispatch tries per shard (worker deaths only;
	// spawn failures never held the shard). doneShard guards against a
	// shard priced twice — possible when a timed-out worker was merely
	// slow and both its late result and the re-dispatch land.
	attempts := make(map[int]int, len(pendingShards))
	doneShard := make([]bool, shards)
	for k := range prior.done {
		doneShard[k] = true
	}
	completed := 0
	stopped := false
	var fatal error
	var lastDead error
	handle := func(dl delivery) {
		switch dl.kind {
		case dResult:
			if doneShard[dl.shard] {
				return
			}
			doneShard[dl.shard] = true
			shardErrs[dl.shard] = dl.err
			stats[dl.shard] = dl.stats
			completed++
			RecordShardDone()
			if jr != nil && dl.err == nil {
				if err := jr.append(journalRec{Type: recDone, Shard: dl.shard, Stats: dl.stats, Digest: statsDigest(dl.stats)}); err != nil {
					if fatal == nil {
						fatal = err
					}
					d.halt()
					return
				}
			}
			if opts.StopAfter > 0 && completed >= opts.StopAfter && completed < len(pendingShards) {
				stopped = true
				d.halt()
			}
		case dRequeue:
			if doneShard[dl.shard] || errors.Is(dl.err, ErrStopped) {
				return
			}
			if !dl.spawnFail {
				attempts[dl.shard]++
				if attempts[dl.shard] > retryLimit {
					if fatal == nil {
						fatal = fmt.Errorf("dist: shard %d: worker %d died %d times (last: %v)", dl.shard, dl.slot, attempts[dl.shard], dl.err)
					}
					d.halt()
					return
				}
				RecordShardRetry()
				recordRedispatch()
				if d.net != nil {
					d.net.Redispatches.Add(1)
				}
			}
			d.work <- dl.shard
		case dSlotDead:
			live--
			lastDead = dl.err
			if live == 0 && completed < len(pendingShards) && fatal == nil {
				fatal = fmt.Errorf("dist: every worker slot died before the sweep finished (last: %v)", lastDead)
				d.halt()
			}
		case dScanErr:
			// A corrupt trace outranks every shard-level error: the
			// planner's positioned error is the sweep's error.
			fatal = dl.err
			d.halt()
		}
	}
collect:
	for completed < len(pendingShards) && fatal == nil && !stopped {
		select {
		case dl := <-d.deliveries:
			handle(dl)
		case <-slotsDone:
			break collect
		}
	}
	// Every shard is priced, or the sweep is failing: either way the
	// scan finishes first — it still validates the bytes past the last
	// cut, and a corrupt tail must fail the sweep with its positioned
	// error, not succeed or fail with a worker's.
	for fatal == nil && !stopped && d.scanning() {
		select {
		case <-d.scanDone:
		case dl := <-d.deliveries:
			handle(dl)
		}
	}
	d.halt()
	d.wg.Wait()
	<-d.scanDone
	// Slots and scan have exited; pick up anything still buffered. On a
	// deliberate stop only results matter (a slot racing to die must
	// not fail a stopped sweep); otherwise handle everything so fatal
	// states surface.
	for {
		select {
		case dl := <-d.deliveries:
			if !stopped || dl.kind == dResult {
				handle(dl)
			}
		default:
			if fatal != nil {
				dsp.EndErr(fatal)
				return nil, fatal
			}
			if stopped || (opts.StopAfter > 0 && completed < len(pendingShards)) {
				dsp.EndErr(ErrStopped)
				return nil, fmt.Errorf("%w (%d/%d shards journaled)", ErrStopped, completed+len(prior.done), shards)
			}
			// Shard-level pricing errors: lowest shard wins, matching
			// bus.MergeSlots.
			for k := 0; k < shards; k++ {
				if shardErrs[k] != nil {
					dsp.EndErr(shardErrs[k])
					return nil, shardErrs[k]
				}
			}
			for k := 0; k < shards; k++ {
				if stats[k] == nil {
					err := fmt.Errorf("dist: shard %d never completed", k)
					dsp.EndErr(err)
					return nil, err
				}
			}
			dsp.End()
			return stats, nil
		}
	}
}
