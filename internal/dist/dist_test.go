package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"busenc/internal/codec"
	"busenc/internal/trace"
)

// mixStream mirrors codec's property-test generator: a blend of
// sequential instruction runs, jumps and random data accesses, so
// every registered code (working-zone and adaptive included) exercises
// real state.
func mixStream(width, n int, seed int64) *trace.Stream {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<width - 1
	s := trace.New("mix", width)
	addr := rng.Uint64() & mask
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			addr = (addr + 4) & mask
			s.Append(addr, trace.Instr)
		case 1:
			addr = rng.Uint64() & mask
			s.Append(addr, trace.Instr)
		case 2:
			s.Append(rng.Uint64()&mask, trace.DataRead)
		default:
			s.Append(rng.Uint64()&mask, trace.DataWrite)
		}
	}
	return s
}

// writeBETR materializes s as a BETR file in a temp dir.
func writeBETR(t *testing.T, s *trace.Stream) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.betr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantResults prices s sequentially with RunFast for every spec — the
// reference every sweep must match bit-for-bit.
func wantResults(t *testing.T, s *trace.Stream, specs []CodecSpec, verify codec.VerifyMode, perLine bool) []codec.Result {
	t.Helper()
	out := make([]codec.Result, len(specs))
	for i, cs := range specs {
		c, err := cs.New()
		if err != nil {
			t.Fatal(err)
		}
		r, err := codec.RunFast(c, s, codec.RunOpts{Verify: verify, PerLine: perLine})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func sameResult(got, want codec.Result) bool {
	if got.Codec != want.Codec || got.Transitions != want.Transitions ||
		got.Cycles != want.Cycles || got.MaxPerCycle != want.MaxPerCycle ||
		len(got.PerLine) != len(want.PerLine) {
		return false
	}
	for i := range got.PerLine {
		if got.PerLine[i] != want.PerLine[i] {
			return false
		}
	}
	return true
}

func checkParity(t *testing.T, got, want []codec.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameResult(got[i], want[i]) {
			t.Errorf("codec %s: dist %+v != sequential %+v", want[i].Codec, got[i], want[i])
		}
	}
}

// countingSpawner wraps a Spawner and records every (id, gen) spawn.
type countingSpawner struct {
	inner  Spawner
	mu     sync.Mutex
	spawns []string
}

func (c *countingSpawner) Spawn(id, gen int) (Transport, error) {
	c.mu.Lock()
	c.spawns = append(c.spawns, fmt.Sprintf("%d:%d", id, gen))
	c.mu.Unlock()
	return c.inner.Spawn(id, gen)
}

// TestSweepParityAllCodecs: a multi-worker multi-shard sweep over
// in-process workers matches RunFast exactly for every registered
// codec, with and without per-line counting.
func TestSweepParityAllCodecs(t *testing.T) {
	const width = 32
	s := mixStream(width, 20000, 41)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	for _, perLine := range []bool{false, true} {
		res, err := Sweep(path, Opts{
			Workers: 3,
			Shards:  7,
			Codecs:  specs,
			Verify:  codec.VerifyNone,
			PerLine: perLine,
			Spawn:   InProcSpawner(nil),
		})
		if err != nil {
			t.Fatalf("perLine=%v: %v", perLine, err)
		}
		checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, perLine))
	}
}

// TestSweepVerifyModes: verification settings ride along to the
// workers without disturbing parity.
func TestSweepVerifyModes(t *testing.T) {
	const width = 24
	s := mixStream(width, 8000, 42)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	for _, v := range []codec.VerifyMode{codec.VerifyFull, codec.VerifySampled} {
		res, err := Sweep(path, Opts{
			Workers: 2, Shards: 5, Codecs: specs, Verify: v,
			Spawn: InProcSpawner(nil),
		})
		if err != nil {
			t.Fatalf("verify=%d: %v", v, err)
		}
		checkParity(t, res, wantResults(t, s, specs, v, false))
	}
}

// TestSweepTextTrace: a text trace is converted once and priced
// identically.
func TestSweepTextTrace(t *testing.T) {
	const width = 16
	s := mixStream(width, 6000, 43)
	path := filepath.Join(t.TempDir(), "trace.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	specs := AllSpecs(width)
	res, err := Sweep(path, Opts{
		Workers: 2, Shards: 4, Codecs: specs, Spawn: InProcSpawner(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyFull, false))
}

// TestSweepMorePartsThanWorkers: shards default to 4x workers and
// empty shards (over-split tiny stream) are priced correctly.
func TestSweepTinyStreamOverSplit(t *testing.T) {
	const width = 16
	s := mixStream(width, 37, 44)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	res, err := Sweep(path, Opts{
		Workers: 2, Shards: 16, Codecs: specs, Spawn: InProcSpawner(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyFull, false))
}

// TestWorkerDeathRetry: a worker that dies mid-sweep costs nothing but
// a respawn — the orphaned shard is retried once and parity holds.
func TestWorkerDeathRetry(t *testing.T) {
	const width = 32
	s := mixStream(width, 12000, 45)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	// Worker 0's first life dies after pricing 1 job; every other life
	// is healthy. One slot makes the death deterministic: the pipelined
	// window guarantees the first life receives a second job frame (9
	// shards, one slot), which is what trips FailAfter.
	sp := &countingSpawner{inner: InProcSpawner(func(id, gen int) WorkerOpts {
		if id == 0 && gen == 0 {
			return WorkerOpts{FailAfter: 1}
		}
		return WorkerOpts{}
	})}
	res, err := Sweep(path, Opts{
		Workers: 1, Shards: 9, Codecs: specs, Verify: codec.VerifyNone, Spawn: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, false))
	sp.mu.Lock()
	defer sp.mu.Unlock()
	found := false
	for _, sp := range sp.spawns {
		if sp == "0:1" {
			found = true
		}
	}
	if !found {
		t.Errorf("worker 0 was never respawned: spawns %v", sp.spawns)
	}
}

// TestWorkerDeathExhaustsRetries: a shard whose worker keeps dying
// fails the sweep after the retry budget, with an error naming the
// worker.
func TestWorkerDeathExhaustsRetries(t *testing.T) {
	const width = 16
	s := mixStream(width, 4000, 46)
	path := writeBETR(t, s)
	// A slot that can never hold a live worker: every spawn is
	// refused, so the first shard burns its retry budget immediately.
	dead := SpawnerFunc(func(id, gen int) (Transport, error) {
		return nil, errors.New("spawn refused")
	})
	_, err := Sweep(path, Opts{
		Workers: 1, Shards: 2, Codecs: AllSpecs(width), Verify: codec.VerifyNone, Spawn: dead,
	})
	if err == nil || !strings.Contains(err.Error(), "died") || !strings.Contains(err.Error(), "spawn refused") {
		t.Fatalf("err = %v, want worker-death failure naming the spawn error", err)
	}
}

// TestCheckpointResume: stop a sweep partway, then resume it from the
// journal — the second run prices only the missing shards and total
// results are bit-identical to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	const width = 32
	s := mixStream(width, 16000, 47)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	opts := Opts{
		Workers: 2, Shards: 8, Codecs: specs, Verify: codec.VerifyNone,
		Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: 3,
	}
	_, err := Sweep(path, opts)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("first run: err = %v, want ErrStopped", err)
	}
	// Resume: drop the stop knob, count the jobs actually priced.
	opts.StopAfter = 0
	jobs := &jobCounter{}
	opts.Spawn = jobs.wrap(InProcSpawner(nil))
	res, err := Sweep(path, opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, false))
	if n := jobs.count(); n >= 8 {
		t.Errorf("resume priced %d shards; journal recovery saved nothing", n)
	}
}

// jobCounter counts jobs flowing through wrapped transports.
type jobCounter struct {
	mu sync.Mutex
	n  int
}

func (jc *jobCounter) count() int {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	return jc.n
}

func (jc *jobCounter) wrap(inner Spawner) Spawner {
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		t, err := inner.Spawn(id, gen)
		if err != nil {
			return nil, err
		}
		return &countingTransport{Transport: t, jc: jc}, nil
	})
}

type countingTransport struct {
	Transport
	jc *jobCounter
}

func (ct *countingTransport) Send(m msg) error {
	if m.Type == msgJob {
		ct.jc.mu.Lock()
		ct.jc.n++
		ct.jc.mu.Unlock()
	}
	return ct.Transport.Send(m)
}

// TestCheckpointTornTail: a torn trailing line (the crash case) is
// dropped; the shard it described is simply re-priced.
func TestCheckpointTornTail(t *testing.T) {
	const width = 16
	s := mixStream(width, 8000, 48)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	opts := Opts{
		Workers: 1, Shards: 4, Codecs: specs, Verify: codec.VerifyNone,
		Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: 2,
	}
	if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
		t.Fatal("expected stop")
	}
	// Tear the tail: append half a record with no newline.
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"done","shard":3,"stats":{"bro`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	opts.StopAfter = 0
	res, err := Sweep(path, opts)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, false))
}

// TestCheckpointStalePlan: resuming with different sweep parameters is
// refused — the checkpoint carries the plan digest.
func TestCheckpointStalePlan(t *testing.T) {
	const width = 16
	s := mixStream(width, 6000, 49)
	path := writeBETR(t, s)
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	opts := Opts{
		Workers: 1, Shards: 4, Codecs: AllSpecs(width), Verify: codec.VerifyNone,
		Checkpoint: ckpt, Spawn: InProcSpawner(nil), StopAfter: 1,
	}
	if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
		t.Fatal("expected stop")
	}
	opts.StopAfter = 0
	opts.Shards = 5 // different plan
	_, err := Sweep(path, opts)
	if err == nil || !strings.Contains(err.Error(), "different plan") {
		t.Fatalf("err = %v, want plan-digest refusal", err)
	}
}

// TestSweepRejectsTrainedCodec: Options.Train cannot cross a process
// boundary and must be refused at spec time, not dropped.
func TestSweepRejectsTrainedCodec(t *testing.T) {
	s := mixStream(16, 100, 50)
	if _, err := SpecFor("beach", 16, codec.Options{Train: s}); err == nil {
		t.Fatal("trained codec accepted")
	}
}

// TestSweepErrorPositioning: a shard-level pricing failure surfaces
// with the lowest shard winning, like the in-process merge. A codec
// spec that cannot be constructed (bad width) fails every shard; the
// reported error must be deterministic.
func TestSweepBadSpec(t *testing.T) {
	s := mixStream(16, 4000, 51)
	path := writeBETR(t, s)
	_, err := Sweep(path, Opts{
		Workers: 2, Shards: 4,
		Codecs: []CodecSpec{{Name: "no-such-codec", Width: 16}},
		Spawn:  InProcSpawner(nil),
	})
	if err == nil || !strings.Contains(err.Error(), "no-such-codec") {
		t.Fatalf("err = %v, want unknown-codec failure", err)
	}
}

// TestPipelinedWindowParity: the in-flight window is a latency knob,
// never a correctness knob — any window size produces bit-identical
// results, including window 1 (the old lock-step dispatch).
func TestPipelinedWindowParity(t *testing.T) {
	const width = 32
	s := mixStream(width, 10000, 54)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	want := wantResults(t, s, specs, codec.VerifyNone, false)
	for _, window := range []int{1, 2, 8} {
		res, err := Sweep(path, Opts{
			Workers: 2, Shards: 8, Codecs: specs, Verify: codec.VerifyNone,
			Window: window, Spawn: InProcSpawner(nil),
		})
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		checkParity(t, res, want)
	}
}

// TestHeartbeatTimeoutRedispatch: a worker that wedges (keeps the
// connection open but answers nothing) is detected by the heartbeat
// timeout; its in-flight shards re-dispatch and parity holds.
func TestHeartbeatTimeoutRedispatch(t *testing.T) {
	const width = 32
	s := mixStream(width, 8000, 55)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	var ns NetStats
	// Worker 0's first life stalls after one job: it reads every frame
	// (so pipelined sends never block) but stops replying, even to
	// pings — the wedged-peer failure mode EOF detection cannot see.
	// One slot makes the stall deterministic: it must receive a second
	// job, which a second slot could otherwise have taken.
	sp := InProcSpawner(func(id, gen int) WorkerOpts {
		if id == 0 && gen == 0 {
			return WorkerOpts{StallAfter: 1}
		}
		return WorkerOpts{}
	})
	res, err := Sweep(path, Opts{
		Workers: 1, Shards: 8, Codecs: specs, Verify: codec.VerifyNone,
		Spawn: sp, Net: &ns,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, false))
	if n := ns.HeartbeatTimeouts.Load(); n < 1 {
		t.Errorf("heartbeat timeouts = %d, want >= 1", n)
	}
	if n := ns.Redispatches.Load(); n < 1 {
		t.Errorf("redispatches = %d, want >= 1", n)
	}
}
