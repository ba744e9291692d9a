package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"busenc/internal/codec"
	"busenc/internal/serve"
)

// serve-mixed: one in-process daemon, nproc client goroutines in a
// closed loop, one tenant each. An iteration uploads a fresh trace
// (a new stream name makes a new digest, so the store never dedups),
// evaluates it (a cache miss) and evaluates it again (a cache hit).
// Every 8th iteration uploads a large trace instead, which the
// daemon's default routing sends async (202, then a long-poll). The
// clients run in bursts of sz.burst iterations each; garbage is
// collected between bursts, outside the timed region, and each burst
// is one sample.

// asyncEvery makes every 8th iteration of a client an async one.
const asyncEvery = 8

// iteration is one client iteration's outcome.
type iteration struct {
	async   bool
	entries int64
	total   time.Duration // upload + miss + hit
	upload  time.Duration
	miss    time.Duration // sync eval, or async request until done
	hit     time.Duration
	evals   int // eval replies received
	cached  int // of which the result cache answered
	status  int // HTTP status of the failed request, if one failed
	err     error
}

// mixClient is one tenant's HTTP client.
type mixClient struct {
	id     int
	base   string
	tenant string
	hc     *http.Client
	next   int // iterations run so far
}

// mixer drives serve-mixed against one daemon.
type mixer struct {
	in      *inputs
	names   atomic.Int64 // upload names issued
	clients []*mixClient
	tr      *http.Transport
}

func newMixer(in *inputs, d *daemon, clients int) *mixer {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	m := &mixer{in: in, tr: tr}
	for i := 0; i < clients; i++ {
		m.clients = append(m.clients, &mixClient{
			id: i, base: "http://" + d.addr, tenant: fmt.Sprintf("tenant%d", i),
			hc: &http.Client{Transport: tr, Timeout: time.Minute},
		})
	}
	return m
}

func (m *mixer) close() { m.tr.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON reply into out. Any
// other status is an error that carries the daemon's message.
func (c *mixClient) do(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %v", method, path, err)
	}
	return resp.StatusCode, nil
}

var evalQuery = "&codes=" + url.QueryEscape(strings.Join(paperCodes, ","))

// evaluate runs one /eval of digest and returns its results, whether
// the cache answered and the status of the last request. Sync replies
// carry the results; an async 202 is followed by long-polls of its job
// until it is done.
func (c *mixClient) evaluate(digest string, async bool) ([]codec.Result, bool, int, error) {
	path := "/eval?trace=" + url.QueryEscape(digest) + evalQuery
	if !async {
		var er serve.EvalResponse
		status, err := c.do(http.MethodGet, path, nil, &er)
		return er.Results, er.Cached, status, err
	}
	var job struct {
		ID string `json:"id"`
	}
	status, err := c.do(http.MethodGet, path, nil, &job)
	if err != nil {
		return nil, false, status, err
	}
	if status != http.StatusAccepted {
		return nil, false, status, fmt.Errorf("eval of a large trace answered %d, want 202", status)
	}
	for {
		var snap serve.Snapshot
		if status, err = c.do(http.MethodGet, "/jobs/"+job.ID+"?wait=30s", nil, &snap); err != nil {
			return nil, false, status, err
		}
		switch snap.State {
		case serve.JobDone:
			return snap.Results, snap.Cached, status, nil
		case serve.JobFailed:
			return nil, false, status, fmt.Errorf("job %s failed: %s", job.ID, snap.Error)
		}
	}
}

// count tallies one eval reply, or the status of a failed eval.
func (it *iteration) count(cached bool, status int, err error) {
	if err != nil {
		it.status = status
		return
	}
	it.evals++
	if cached {
		it.cached++
	}
}

// iterate runs the client's next iteration.
func (m *mixer) iterate(c *mixClient) (it iteration) {
	i := c.next
	c.next++
	// Clients are offset so their async iterations do not coincide.
	it.async = (i+c.id*asyncEvery/2)%asyncEvery == asyncEvery-1
	base := m.in.small[i%len(m.in.small)]
	if it.async {
		base = m.in.large[(i/asyncEvery)%len(m.in.large)]
	}
	it.entries = int64(base.stream.Len())
	body := base.bytes(fmt.Sprintf("u%0*d", uploadNameLen-1, m.names.Add(1)))

	t0 := time.Now()
	var meta serve.TraceMeta
	if it.status, it.err = c.do(http.MethodPost, "/traces", body, &meta); it.err != nil {
		return it
	}
	it.status = 0
	t1 := time.Now()
	got, cached, status, err := c.evaluate(meta.Digest, it.async)
	t2 := time.Now()
	it.count(cached, status, err)
	if err == nil && cached {
		err = fmt.Errorf("first eval of fresh trace %s answered from the cache", meta.Digest)
	}
	if err == nil {
		err = checkResults(got, base.ref, false)
	}
	if it.err = err; err != nil {
		return it
	}
	got, cached, status, err = c.evaluate(meta.Digest, it.async)
	t3 := time.Now()
	it.count(cached, status, err)
	if err == nil && !cached {
		err = fmt.Errorf("repeat eval of %s missed the cache", meta.Digest)
	}
	if err == nil {
		err = checkResults(got, base.ref, false)
	}
	it.err = err
	it.upload, it.miss, it.hit, it.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	return it
}

// burst runs n iterations on every client concurrently and returns
// them with the burst's sample. Garbage is collected first, outside
// the timed region.
func (m *mixer) burst(n int) (sample, []iteration) {
	its := make([][]iteration, len(m.clients))
	s, _ := measure(func() error {
		var wg sync.WaitGroup
		for ci, c := range m.clients {
			wg.Add(1)
			go func(ci int, c *mixClient) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					its[ci] = append(its[ci], m.iterate(c))
				}
			}(ci, c)
		}
		wg.Wait()
		return nil
	})
	var all []iteration
	s.ops = 0
	for _, ci := range its {
		for _, it := range ci {
			all = append(all, it)
			s.ops++
			if it.err == nil {
				s.entries += it.entries
			}
		}
	}
	return s, all
}

// serveSetup is serve-mixed's set-up: serve.New, Start, the listener
// and the first iteration of one client against the new daemon.
func serveSetup(in *inputs, dir string) (*daemon, *mixer, time.Duration, iteration, error) {
	var d *daemon
	var m *mixer
	var first iteration
	s, err := measure(func() error {
		var err error
		if d, err = startDaemon(dir, true); err != nil {
			return err
		}
		m = newMixer(in, d, runtime.GOMAXPROCS(0))
		first = m.iterate(m.clients[0])
		return nil
	})
	return d, m, s.wall, first, err
}

// runServeMixed runs bursts until the deadline. The daemon is set up
// setupReps times; the last one serves the warm-up burst and the timed
// bursts.
func runServeMixed(sz sizes, in *inputs, dir string, d time.Duration) (rep *report, err error) {
	rep = &report{}
	var setup []time.Duration
	var dmn *daemon
	var m *mixer
	defer func() {
		if m != nil {
			m.close()
		}
		if dmn != nil {
			if serr := dmn.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	for i := 0; i < sz.setupReps["serve-mixed"]; i++ {
		if dmn != nil {
			m.close()
			if err := dmn.stop(); err != nil {
				return nil, err
			}
			dmn, m = nil, nil
		}
		var wall time.Duration
		var first iteration
		var err error
		if dmn, m, wall, first, err = serveSetup(in, dir); err != nil {
			return nil, err
		}
		rep.record(first.err)
		setup = append(setup, wall)
	}
	_, warm := m.burst(sz.burst)
	for _, it := range warm {
		rep.record(it.err)
	}
	var samples []sample
	var lat []time.Duration
	deadline := time.Now().Add(d)
	for len(samples) < 3 || time.Now().Before(deadline) {
		s, its := m.burst(sz.burst)
		samples = append(samples, s)
		for _, it := range its {
			rep.record(it.err)
			if it.err == nil {
				lat = append(lat, it.total)
			}
		}
	}
	rep.metrics = endToEndMetrics(setup, samples, lat)
	return rep, nil
}
