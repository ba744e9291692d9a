package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"busenc/internal/bus"
	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// Coordinator: plan -> (scan || dispatch) -> merge. Concurrency is
// deliberately boring — one scan goroutine publishing shard indices to
// a shared queue as it passes their cuts (see scan.go), one goroutine
// per slot (local worker process or TCP peer) pulling them off it
// within a bounded in-flight window (see dispatch.go), results
// funneled to the coordinator goroutine over a channel, no shared
// mutable state beyond the counters. Determinism comes from the merge,
// not the schedule: results land in fixed per-shard slots and buses
// merge in ascending shard order, so any interleaving of workers
// produces the same totals.

// Spawner creates worker transports. id is the worker's slot in the
// pool; gen counts respawns of that slot (0 for the first spawn), which
// fault-injecting spawners use to fail only a worker's first life.
type Spawner interface {
	Spawn(id, gen int) (Transport, error)
}

// Transport is one worker connection: framed messages plus a Close that
// reaps the worker.
type Transport interface {
	Send(m msg) error
	Recv() (msg, error)
	Close() error
}

// SpawnerFunc adapts a function to the Spawner interface.
type SpawnerFunc func(id, gen int) (Transport, error)

func (f SpawnerFunc) Spawn(id, gen int) (Transport, error) { return f(id, gen) }

// ErrStopped is returned by Sweep when Opts.StopAfter interrupted the
// sweep: the checkpoint holds everything priced so far and a second
// Sweep with the same options resumes from it.
var ErrStopped = errors.New("dist: sweep stopped at checkpoint")

// Opts configures a distributed sweep.
type Opts struct {
	// Workers is the local worker-pool size; <= 0 means 1, unless
	// Peers is non-empty, in which case <= 0 means no local workers
	// (a peers-only sweep needs no Spawn at all).
	Workers int
	// Shards is the number of contiguous shards; <= 0 means 4 per
	// slot (workers + peers), the smallest count that keeps the pool
	// busy while shard runtimes vary.
	Shards int
	// Codecs are the codes to price, all in one pass per shard.
	Codecs []CodecSpec
	// Verify, PerLine and Kernel mirror codec.ParallelOpts, with the
	// same shard-0 verification semantics.
	Verify  codec.VerifyMode
	PerLine bool
	Kernel  codec.Kernel
	// Checkpoint is the journal path; empty disables checkpointing.
	Checkpoint string
	// Spawn creates local workers. Required when Workers > 0
	// (cmd/busencsweep passes the re-exec spawner, tests pass
	// in-process pipes).
	Spawn Spawner
	// Peers are busencd addresses (host:port) to price shards on over
	// TCP. Each peer is one slot in the pool, mixed freely with local
	// workers. The trace is shipped once per peer by SHA-256 digest
	// into its content-addressed store before dispatch; a peer that
	// already holds the digest receives zero trace bytes.
	Peers []string
	// Window bounds in-flight shards per slot: a slot holding Window
	// unanswered jobs takes no more work until one is answered. <= 0
	// means DefaultWindow; Window 1 is lock-step dispatch.
	Window int
	// HeartbeatInterval and HeartbeatTimeout tune liveness probing of
	// busy slots; <= 0 means the defaults. A slot silent past the
	// timeout is declared dead and its shards re-dispatch.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Net, when non-nil, accumulates network-transport counters
	// (frames, bytes, redispatches, trace shipping) for the caller.
	Net *NetStats
	// Harvest, when non-nil, turns on distributed tracing: the sweep
	// mints a trace ID, propagates span context in every job, and
	// collects every worker's and peer's tagged spans (with clock-offset
	// estimates) into Harvest at sweep end. Harvest.Merged then yields
	// the multi-process timeline. Harvesting only observes — results
	// are bit-identical with it on or off.
	Harvest *SpanHarvest
	// StopAfter, when positive, stops the sweep after that many shard
	// results have been journaled, returning ErrStopped — the
	// coordinator half of the kill/resume tests.
	StopAfter int
	// RetryLimit is the number of times a shard orphaned by a worker
	// death is re-dispatched before the sweep fails; <= 0 means 1
	// (retry once).
	RetryLimit int

	// onPublish, when non-nil, runs on the scan goroutine after each
	// shard is queued — the in-package tests' view of the pipeline.
	onPublish func(shard int)
}

// Sweep prices the trace at path across a pool of worker processes and
// returns one Result per requested codec, in opts.Codecs order, each
// bit-identical to codec.RunFast over the same stream. Text traces are
// converted to a temporary BETR file once; BETR traces are shared with
// the workers by path, so no shard data crosses the pipes.
//
// The coordinator is one pipeline, not a chain of barriers: a single
// forward scan of the mapped trace (see scan.go) decodes every entry
// once, steps the prefix-dependent codecs' encoders state-only, and
// publishes shard k to the dispatcher the moment it passes cut k, so
// the pool prices early shards while the scan is still reading late
// ones. Nothing holds the trace, or any shard of it, as []trace.Entry.
func Sweep(path string, opts Opts) ([]codec.Result, error) {
	if len(opts.Codecs) == 0 {
		return nil, fmt.Errorf("dist: no codecs requested")
	}
	workers := opts.Workers
	if workers <= 0 {
		if len(opts.Peers) > 0 {
			workers = 0
		} else {
			workers = 1
		}
	}
	if workers > 0 && opts.Spawn == nil {
		return nil, fmt.Errorf("dist: no worker spawner")
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 4 * (workers + len(opts.Peers))
	}

	var rootCtx obs.SpanContext
	if opts.Harvest != nil {
		opts.Harvest.start(obs.NewTraceID())
		rootCtx.Trace = opts.Harvest.TraceID()
	}
	root := obs.StartSpanCtx("dist.sweep", obs.StageEval, rootCtx).WithStream(path)

	// Plan: map the view and read its header. The cut entry indices
	// follow from the header's entry count alone; the cuts themselves
	// stream out of the scan.
	psp := root.Child("dist.plan", obs.StageRead)
	plan, cleanup, err := openPlan(path, shards)
	if err != nil {
		psp.EndErr(err)
		root.EndErr(err)
		return nil, err
	}
	defer cleanup()
	// The content digest names the trace to peers and keys the
	// checkpoint; a sweep needing neither skips the hash.
	if len(opts.Peers) > 0 || opts.Checkpoint != "" {
		sum := sha256.Sum256(plan.data)
		plan.ref = "sha256:" + hex.EncodeToString(sum[:])
	}
	psp.End()

	// Checkpoint: recover what a previous coordinator already priced.
	digest := planDigest(plan.ref, shards, opts.Codecs, int(opts.Verify), opts.PerLine, int(opts.Kernel))
	prior, jr, err := openCheckpoint(opts.Checkpoint, digest, plan, opts.Codecs)
	if err != nil {
		root.EndErr(err)
		return nil, err
	}
	if jr != nil {
		defer jr.Close()
	}

	d, err := newDispatcher(root, plan, opts, workers+len(opts.Peers), prior, jr)
	if err != nil {
		root.EndErr(err)
		return nil, err
	}
	d.startScan()

	// Slot pool: one config per local worker plus one per TCP peer.
	// Peers are handshaken (version via /healthz) and the trace is
	// shipped by digest before any slot starts, so a dispatch never
	// stalls on a bulk upload; the scan is already publishing shards.
	cfgs := make([]slotConfig, 0, workers+len(opts.Peers))
	for i := 0; i < workers; i++ {
		cfgs = append(cfgs, slotConfig{spawn: opts.Spawn})
	}
	if len(opts.Peers) > 0 {
		ns := opts.Net
		if ns == nil {
			ns = &NetStats{}
		}
		if err := shipTrace(root, plan, opts.Peers, ns); err != nil {
			d.abort()
			root.EndErr(err)
			return nil, err
		}
		for _, addr := range opts.Peers {
			cfgs = append(cfgs, slotConfig{spawn: peerSpawner(addr, ns), ref: plan.ref})
		}
	}

	// Dispatch: fan shards out to the pool as the scan publishes them.
	stats, err := d.run(cfgs)
	if err != nil {
		root.EndErr(err)
		return nil, err
	}

	// Span harvest from TCP peers: their recorders outlive the /dist
	// connections, so tagged spans are pulled over plain HTTP once
	// dispatch is done. Best-effort — a harvest failure costs spans,
	// not the sweep.
	if opts.Harvest != nil && len(opts.Peers) > 0 {
		hsp := root.Child("dist.net.span_harvest", obs.StageNet)
		hsp.EndErr(harvestPeerSpans(opts.Peers, opts.Harvest))
	}

	// Merge: ascending shard order, per codec.
	msp := root.Child("dist.merge", obs.StageMerge)
	results, err := mergeStats(plan, opts.Codecs, stats)
	if err != nil {
		msp.EndErr(err)
		root.EndErr(err)
		return nil, err
	}
	msp.End()
	root.End()
	return results, nil
}

// planned is the coordinator's view of the trace: the mapped bytes,
// the header, the cut entry indices, and — filled in by the scan as it
// passes them — the cuts themselves.
type planned struct {
	path   string // BETR path the workers open (maybe a temp conversion)
	data   []byte
	name   string
	width  int
	total  int64
	shards int
	// ref is the trace's content address ("sha256:<hex>"), set when
	// peers or a checkpoint need it.
	ref string
	// entry[k] is cut k's entry index (entry[shards] the end), known
	// from the header before any entry is read.
	entry []int64
	// scan is the streamed planner over data; cuts[k] is written by
	// the scan goroutine before shard k is published, and read only by
	// whoever received k from the work queue.
	scan *trace.CutReader
	cuts []trace.RangeCut
}

// shardLen is the entry count of shard k.
func (p *planned) shardLen(k int) int64 { return p.entry[k+1] - p.entry[k] }

// openPlan maps the trace and opens the streamed planner over it. A
// text trace (anything without the BETR magic) is converted once into
// a temporary BETR file so workers can byte-range it; the returned
// cleanup removes the temp file and unmaps the view.
func openPlan(path string, shards int) (*planned, func(), error) {
	data, closer, err := trace.MapBytes(path)
	if err != nil {
		return nil, nil, err
	}
	tmp := ""
	if len(data) < 4 || string(data[:4]) != "BETR" {
		// Text trace: convert once. The temp file lives for the whole
		// sweep so late-spawned (and respawned) workers can open it.
		closer.Close()
		if tmp, err = convertText(path); err != nil {
			return nil, nil, err
		}
		path = tmp
		if data, closer, err = trace.MapBytes(path); err != nil {
			os.Remove(tmp)
			return nil, nil, err
		}
	}
	cleanup := func() {
		closer.Close()
		if tmp != "" {
			os.Remove(tmp)
		}
	}
	r, err := trace.NewCutReader(data, path, shards, nil)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	p := &planned{
		path: path, data: data, name: r.Name(), width: r.Width(), total: r.Total(),
		shards: shards, scan: r,
		entry: make([]int64, shards+1),
		cuts:  make([]trace.RangeCut, shards+1),
	}
	for k := range p.entry {
		p.entry[k] = r.Target(k)
	}
	RecordPlan(p.total, shards)
	return p, cleanup, nil
}

// convertText streams a non-BETR trace into a temporary BETR file and
// returns its path. The text is read twice — once to count entries
// and settle the metadata (text comments may follow the entries), once
// to write them — so memory stays at a few pooled chunks.
func convertText(path string) (string, error) {
	r, closer, err := trace.OpenFile(path, nil)
	if err != nil {
		return "", err
	}
	n, err := trace.Copy(r, func(*trace.Chunk) error { return nil })
	closer.Close()
	if err != nil {
		return "", err
	}
	name, width := r.Name(), r.Width()
	if r, closer, err = trace.OpenFile(path, nil); err != nil {
		return "", err
	}
	defer closer.Close()
	f, err := os.CreateTemp("", "busenc-dist-*.betr")
	if err != nil {
		return "", err
	}
	if err := trace.WriteBinaryChunks(f, name, width, uint64(n), r); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// planDigest content-addresses a sweep plan: the trace's content
// digest plus everything that determines the cuts or what workers
// compute. The cuts follow from the bytes and the shard count alone,
// so the digest is known before the scan that finds them starts. A
// checkpoint written under a different digest is for a different
// sweep and must not be resumed into this one.
func planDigest(ref string, shards int, specs []CodecSpec, verify int, perLine bool, kernel int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(ref)
	enc.Encode(shards)
	enc.Encode(specs)
	enc.Encode([]int{verify, kernel})
	enc.Encode(perLine)
	return hex.EncodeToString(h.Sum(nil))
}

// openCheckpoint loads any prior journal state and opens the journal
// for appending, writing the plan header if the file is fresh.
func openCheckpoint(path, digest string, plan *planned, specs []CodecSpec) (*journalState, *journal, error) {
	if path == "" {
		return &journalState{boundary: map[int]map[string][]byte{}, done: map[int]map[string]bus.Stats{}}, nil, nil
	}
	prior, err := loadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if prior.header.Type != "" && prior.header.PlanDigest != digest {
		return nil, nil, fmt.Errorf("dist: checkpoint %s was written for a different plan (digest %.12s, want %.12s); remove it or rerun the original sweep",
			path, prior.header.PlanDigest, digest)
	}
	jr, err := openJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if prior.header.Type == "" {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.Name
		}
		if err := jr.append(journalRec{
			Type: recPlan, PlanDigest: digest, Trace: plan.path,
			Total: plan.total, Shards: plan.shards, Codecs: names,
		}); err != nil {
			jr.Close()
			return nil, nil, err
		}
	}
	RecordResume(len(prior.done))
	return prior, jr, nil
}

// buildJob assembles the wire job for one shard.
func buildJob(plan *planned, opts Opts, shard int, states map[string][]byte) *Job {
	cjs := make([]CodecJob, len(opts.Codecs))
	for i, cs := range opts.Codecs {
		cjs[i] = CodecJob{Spec: cs, State: states[cs.Name]}
	}
	return &Job{
		TracePath: plan.path,
		Stream:    plan.name,
		Width:     plan.width,
		Shard:     shard,
		Cut:       plan.cuts[shard],
		N:         plan.shardLen(shard),
		Codecs:    cjs,
		Verify:    int(opts.Verify),
		PerLine:   opts.PerLine,
		Kernel:    int(opts.Kernel),
	}
}

// mergeStats rebuilds per-shard buses from the returned stats and
// merges them ascending, per codec, into final Results.
func mergeStats(plan *planned, specs []CodecSpec, stats []map[string]bus.Stats) ([]codec.Result, error) {
	results := make([]codec.Result, len(specs))
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			return nil, err
		}
		slots := make([]*bus.Bus, len(stats))
		for k, st := range stats {
			s, ok := st[cs.Name]
			if !ok {
				return nil, fmt.Errorf("dist: shard %d returned no stats for codec %s", k, cs.Name)
			}
			b, err := bus.FromStats(c.BusWidth(), s)
			if err != nil {
				return nil, fmt.Errorf("dist: shard %d codec %s: %w", k, cs.Name, err)
			}
			slots[k] = b
		}
		merged, err := bus.MergeSlots(slots, nil)
		if err != nil {
			return nil, err
		}
		results[i] = codec.ResultOf(c, plan.name, merged)
	}
	return results, nil
}

// AllSpecs returns specs for every registered codec at the given width
// with zero-value options, sorted by name — the default codec set of
// cmd/busencsweep and the dist tests.
func AllSpecs(width int) []CodecSpec {
	names := codec.Names()
	sort.Strings(names)
	specs := make([]CodecSpec, len(names))
	for i, n := range names {
		specs[i] = CodecSpec{Name: n, Width: width}
	}
	return specs
}
