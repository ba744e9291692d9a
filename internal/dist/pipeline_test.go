package dist

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"busenc/internal/codec"
	"busenc/internal/obs"
	"busenc/internal/trace"
)

// windowProbe wraps a Spawner's transports to watch the dispatch window
// from the wire: per slot, the jobs sent and not yet answered, their
// maximum, and the results each slot returned.
type windowProbe struct {
	inner Spawner
	// sent, when non-nil, is told the shard of every job put on the
	// wire.
	sent chan<- int

	mu      sync.Mutex
	open    map[int]int
	maxOpen map[int]int
	priced  map[int]int
}

func newWindowProbe(inner Spawner) *windowProbe {
	return &windowProbe{inner: inner, open: map[int]int{}, maxOpen: map[int]int{}, priced: map[int]int{}}
}

func (p *windowProbe) Spawn(id, gen int) (Transport, error) {
	t, err := p.inner.Spawn(id, gen)
	if err != nil {
		return nil, err
	}
	return &probeTransport{Transport: t, p: p, id: id}, nil
}

type probeTransport struct {
	Transport
	p  *windowProbe
	id int
}

func (pt *probeTransport) Send(m msg) error {
	if m.Type == msgJob {
		pt.p.mu.Lock()
		pt.p.open[pt.id]++
		if pt.p.open[pt.id] > pt.p.maxOpen[pt.id] {
			pt.p.maxOpen[pt.id] = pt.p.open[pt.id]
		}
		pt.p.mu.Unlock()
		if pt.p.sent != nil {
			select {
			case pt.p.sent <- m.Job.Shard:
			default:
			}
		}
	}
	return pt.Transport.Send(m)
}

func (pt *probeTransport) Recv() (msg, error) {
	m, err := pt.Transport.Recv()
	if err == nil && m.Type == msgResult {
		pt.p.mu.Lock()
		pt.p.open[pt.id]--
		pt.p.priced[pt.id]++
		pt.p.mu.Unlock()
	}
	return m, err
}

// TestDispatchWindowBound: no slot ever holds more unanswered jobs than
// Window, and with two slots of equal speed both price work — a slot
// whose window is full must leave the queue to the others.
func TestDispatchWindowBound(t *testing.T) {
	const width = 32
	s := mixStream(width, 40000, 61)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	want := wantResults(t, s, specs, codec.VerifyNone, false)
	for _, window := range []int{1, 2, 4} {
		probe := newWindowProbe(InProcSpawner(nil))
		res, err := Sweep(path, Opts{
			Workers: 2, Shards: 16, Codecs: specs, Verify: codec.VerifyNone,
			Window: window, Spawn: probe,
		})
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		checkParity(t, res, want)
		probe.mu.Lock()
		for id := 0; id < 2; id++ {
			if got := probe.maxOpen[id]; got > window {
				t.Errorf("window=%d: slot %d held %d unanswered jobs", window, id, got)
			}
			if probe.priced[id] == 0 {
				t.Errorf("window=%d: slot %d priced nothing (per-slot results %v)", window, id, probe.priced)
			}
		}
		probe.mu.Unlock()
	}
}

// TestSweepDispatchesBeforeScanEnds: shard 0 is on the wire before the
// scan passes cut 1. The publish hook holds the scan right after it
// queues shard 0; a coordinator that planned or seeded the whole trace
// before dispatching could never send the job while the scan waits.
func TestSweepDispatchesBeforeScanEnds(t *testing.T) {
	const width = 32
	s := mixStream(width, 20000, 62)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	sent := make(chan int, 64)
	probe := newWindowProbe(InProcSpawner(nil))
	probe.sent = sent
	early := false
	opts := Opts{
		Workers: 2, Shards: 8, Codecs: specs, Verify: codec.VerifyNone, Spawn: probe,
		onPublish: func(k int) {
			if k != 0 {
				return
			}
			timeout := time.After(10 * time.Second)
			for {
				select {
				case sh := <-sent:
					if sh == 0 {
						early = true
						return
					}
				case <-timeout:
					return
				}
			}
		},
	}
	res, err := Sweep(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, false))
	if !early {
		t.Fatal("shard 0 was not dispatched while the scan waited before cut 1")
	}
}

// settleGoroutines waits for the goroutine count to fall back to at
// most n, failing the test if it never does.
func settleGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, want <= %d:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepCorruptTrace: a trace corrupted inside shard 5's byte range
// fails the sweep with exactly the planner's positioned error and no
// results, leaves no goroutine behind, and leaves a journal that a
// resume over the same bytes re-plans into the same error and a resume
// over repaired bytes refuses as a different plan.
func TestSweepCorruptTrace(t *testing.T) {
	const width = 32
	s := mixStream(width, 24000, 63)
	path := writeBETR(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut 11 of 16 lies strictly inside shard 5 of 8.
	fine, err := trace.IndexBETR(data, path, 16)
	if err != nil {
		t.Fatal(err)
	}
	at := fine.Cuts[11].Off
	good := data[at]
	bad := bytes.Clone(data)
	bad[at] = 9 // not a Kind
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, want := trace.IndexBETR(bad, path, 8)
	if want == nil || !strings.Contains(want.Error(), "entry ") {
		t.Fatalf("planner accepted the corrupt trace: %v", want)
	}
	ckpt := t.TempDir() + "/sweep.json"
	opts := Opts{
		Workers: 2, Shards: 8, Codecs: AllSpecs(width), Verify: codec.VerifyNone,
		Spawn: InProcSpawner(nil), Checkpoint: ckpt,
	}
	base := runtime.NumGoroutine()
	for run := 0; run < 2; run++ { // fresh, then resumed from the journal
		res, err := Sweep(path, opts)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("run %d: err = %v, want %v", run, err, want)
		}
		if res != nil {
			t.Fatalf("run %d: results returned with the error", run)
		}
		settleGoroutines(t, base)
	}
	bad[at] = good
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(path, opts); err == nil || !strings.Contains(err.Error(), "different plan") {
		t.Fatalf("repaired trace: err = %v, want a different-plan refusal", err)
	}
	opts.Checkpoint = ""
	res, err := Sweep(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, AllSpecs(width), codec.VerifyNone, false))
}

// TestReadyWaitMetric: a sweep whose scan lags the pool records how
// long slots with free window capacity waited for it, under a name the
// Prometheus exposition carries; with metrics off the hook costs no
// allocation.
func TestReadyWaitMetric(t *testing.T) {
	obs.Disable()
	if allocs := testing.AllocsPerRun(1000, func() { recordReadyWait(12345) }); allocs != 0 {
		t.Fatalf("disabled ready-wait hook allocates: %v allocs/op", allocs)
	}

	obs.Enable()
	defer obs.Disable()
	before := obs.Default().Snapshot()
	const width = 16
	s := mixStream(width, 8000, 64)
	path := writeBETR(t, s)
	_, err := Sweep(path, Opts{
		Workers: 2, Shards: 8, Codecs: AllSpecs(width), Verify: codec.VerifyNone,
		Spawn:     InProcSpawner(nil),
		onPublish: func(int) { time.Sleep(5 * time.Millisecond) }, // a slow scan
	})
	if err != nil {
		t.Fatal(err)
	}
	d := obs.Default().Snapshot().Diff(before)
	if got := d.Histograms["dist.dispatch.ready_wait_ns"].Count; got < 1 {
		t.Fatalf("ready_wait_ns observations = %d, want >= 1", got)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dist_dispatch_ready_wait_ns_bucket") {
		t.Fatal("/metrics exposition lacks dist.dispatch.ready_wait_ns")
	}
}

// gatedSpawner holds every result until gate closes.
func gatedSpawner(inner Spawner, gate <-chan struct{}) Spawner {
	return SpawnerFunc(func(id, gen int) (Transport, error) {
		t, err := inner.Spawn(id, gen)
		if err != nil {
			return nil, err
		}
		return &gatedTransport{Transport: t, gate: gate}, nil
	})
}

type gatedTransport struct {
	Transport
	gate <-chan struct{}
}

func (g *gatedTransport) Recv() (msg, error) {
	m, err := g.Transport.Recv()
	if err == nil && m.Type == msgResult {
		<-g.gate
	}
	return m, err
}

// TestSweepResumeSkipsSeedSweep: a resumed sweep whose journal holds
// every pending shard's boundary states re-scans for cuts only — no
// encoder is stepped — and still merges bit-identically.
func TestSweepResumeSkipsSeedSweep(t *testing.T) {
	const width = 32
	s := mixStream(width, 16000, 65)
	path := writeBETR(t, s)
	specs := AllSpecs(width)
	ckpt := t.TempDir() + "/sweep.json"
	// Results wait until the scan has published (and journaled) the
	// last shard, so the stop lands after every boundary record.
	gate := make(chan struct{})
	opts := Opts{
		Workers: 1, Shards: 6, Codecs: specs, Verify: codec.VerifyNone,
		Checkpoint: ckpt, Spawn: gatedSpawner(InProcSpawner(nil), gate), StopAfter: 2,
		onPublish: func(k int) {
			if k == 5 {
				close(gate)
			}
		},
	}
	if _, err := Sweep(path, opts); !errors.Is(err, ErrStopped) {
		t.Fatalf("first run: err = %v, want ErrStopped", err)
	}
	prior, err := loadJournal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.boundary) != 5 {
		t.Fatalf("journal holds %d boundary records, want 5", len(prior.boundary))
	}
	opts.StopAfter, opts.onPublish, opts.Spawn = 0, nil, InProcSpawner(nil)
	obs.Enable()
	defer obs.Disable()
	before := obs.Default().Snapshot()
	res, err := Sweep(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, res, wantResults(t, s, specs, codec.VerifyNone, false))
	if stepped := obs.Default().Snapshot().Diff(before).Counters["dist.seed_sweep.entries"]; stepped != 0 {
		t.Errorf("resume with a complete journal stepped %d entries", stepped)
	}
}
