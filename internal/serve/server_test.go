package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/trace"
)

// newTestServer builds a Server over a temp store and mounts it on an
// httptest server. start=false leaves the worker pool idle so queued
// jobs stay queued (deterministic queue-full tests).
func newTestServer(t *testing.T, cfg Config, start bool) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		s.Start()
	}
	mux := http.NewServeMux()
	s.Register(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(func() {
		hs.Close()
		if start {
			s.Drain(5 * time.Second)
		}
	})
	return s, hs
}

// binaryTrace serializes a reference stream of n entries.
func binaryTrace(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, core.ReferenceMuxedStream(n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doReq issues one request and decodes the body.
func doReq(t *testing.T, method, url string, body io.Reader, tenant string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func upload(t *testing.T, hs *httptest.Server, body []byte, tenant string) TraceMeta {
	t.Helper()
	resp, b := doReq(t, http.MethodPost, hs.URL+"/traces", bytes.NewReader(body), tenant)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, body %s", resp.StatusCode, b)
	}
	var meta TraceMeta
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestServerUploadAndSyncEval(t *testing.T) {
	const entries = 512
	_, hs := newTestServer(t, Config{}, true)

	raw := binaryTrace(t, entries)
	meta := upload(t, hs, raw, "alice")
	if !IsDigest(meta.Digest) {
		t.Fatalf("upload digest %q is not a content address", meta.Digest)
	}
	if meta.Entries != entries || meta.Width != 32 {
		t.Errorf("meta = %+v, want %d entries width 32", meta, entries)
	}
	// Re-upload dedups to the same address.
	if again := upload(t, hs, raw, "bob"); again.Digest != meta.Digest {
		t.Errorf("re-upload digest %q != %q", again.Digest, meta.Digest)
	}
	resp, b := doReq(t, http.MethodGet, hs.URL+"/traces", nil, "")
	if resp.StatusCode != 200 || !strings.Contains(string(b), meta.Digest) {
		t.Errorf("GET /traces = %d %s", resp.StatusCode, b)
	}

	// Small stored trace routes synchronously; results must match an
	// in-process evaluation of the same stream (parity).
	resp, b = doReq(t, http.MethodGet, hs.URL+"/eval?trace="+meta.Digest+"&codes=t0,gray", nil, "alice")
	if resp.StatusCode != 200 {
		t.Fatalf("sync eval = %d %s", resp.StatusCode, b)
	}
	var got EvalResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	st := core.ReferenceMuxedStream(entries)
	want, err := core.EvaluateParallel(st, st.Width, []string{"binary", "t0", "gray"},
		core.DefaultOptions, core.ParallelConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("result count = %d, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i].Codec != want[i].Codec || got.Results[i].Transitions != want[i].Transitions {
			t.Errorf("parity: result %d = %s/%d, want %s/%d", i,
				got.Results[i].Codec, got.Results[i].Transitions, want[i].Codec, want[i].Transitions)
		}
	}
	if got.Entries != entries || got.Cached {
		t.Errorf("entries/cached = %d/%v, want %d/false", got.Entries, got.Cached, entries)
	}

	// The same query again is a cache hit.
	resp, b = doReq(t, http.MethodGet, hs.URL+"/eval?trace="+meta.Digest+"&codes=t0,gray", nil, "alice")
	var again EvalResponse
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !again.Cached {
		t.Errorf("repeat eval = %d cached=%v, want 200 cached", resp.StatusCode, again.Cached)
	}
}

func TestServerAsyncEvalAndLongPoll(t *testing.T) {
	_, hs := newTestServer(t, Config{}, true)
	meta := upload(t, hs, binaryTrace(t, 256), "alice")

	resp, b := doReq(t, http.MethodGet,
		hs.URL+"/eval?trace="+meta.Digest+"&codes=t0&mode=async", nil, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async eval = %d %s", resp.StatusCode, b)
	}
	var enq enqueueResponse
	if err := json.Unmarshal(b, &enq); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+enq.ID || loc != enq.Location {
		t.Errorf("Location header %q vs body %q (id %s)", loc, enq.Location, enq.ID)
	}

	// Long-poll until terminal.
	resp, b = doReq(t, http.MethodGet, hs.URL+enq.Location+"?wait=5s", nil, "alice")
	if resp.StatusCode != 200 {
		t.Fatalf("job poll = %d %s", resp.StatusCode, b)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != JobDone || len(snap.Results) != 2 {
		t.Fatalf("job = %+v, want done with 2 results", snap)
	}

	// The tenant's job listing includes it; another tenant's does not.
	_, b = doReq(t, http.MethodGet, hs.URL+"/jobs", nil, "alice")
	if !strings.Contains(string(b), enq.ID) {
		t.Errorf("tenant listing misses job: %s", b)
	}
	_, b = doReq(t, http.MethodGet, hs.URL+"/jobs", nil, "bob")
	if strings.Contains(string(b), enq.ID) {
		t.Errorf("foreign tenant sees the job: %s", b)
	}

	// Poll errors.
	if resp, _ := doReq(t, http.MethodGet, hs.URL+"/jobs/nope", nil, ""); resp.StatusCode != 404 {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, hs.URL+enq.Location+"?wait=bogus", nil, ""); resp.StatusCode != 400 {
		t.Errorf("bad wait = %d, want 400", resp.StatusCode)
	}
}

func TestServerQueueFullBackpressure(t *testing.T) {
	// Workers never started: the first async job parks in the queue and
	// the second hits the capacity bound deterministically.
	_, hs := newTestServer(t, Config{QueueCap: 1}, false)
	meta := upload(t, hs, binaryTrace(t, 64), "alice")
	url := hs.URL + "/eval?trace=" + meta.Digest + "&codes=t0&mode=async"

	if resp, b := doReq(t, http.MethodGet, url, nil, "alice"); resp.StatusCode != 202 {
		t.Fatalf("first async eval = %d %s", resp.StatusCode, b)
	}
	resp, b := doReq(t, http.MethodGet, url, nil, "bob")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second async eval = %d %s, want 503", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 503 missing Retry-After")
	}
	if !strings.Contains(string(b), "queue full") {
		t.Errorf("503 body %s does not name the queue", b)
	}
}

func TestServerDrainRejectsIntake(t *testing.T) {
	s, hs := newTestServer(t, Config{}, true)
	meta := upload(t, hs, binaryTrace(t, 64), "alice")
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
	resp, _ := doReq(t, http.MethodPost, hs.URL+"/traces", bytes.NewReader(binaryTrace(t, 32)), "alice")
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Errorf("upload while draining = %d, want 503 + Retry-After", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet,
		hs.URL+"/eval?trace="+meta.Digest+"&codes=t0&mode=async", nil, "alice")
	if resp.StatusCode != 503 {
		t.Errorf("async eval while draining = %d, want 503", resp.StatusCode)
	}
}

func TestServerUploadErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{
		MaxUploadBytes: 128,
		Quotas:         Quotas{MaxTraceBytes: 64},
	}, true)

	// Positioned parse error from the streaming text parser: line 2.
	resp, b := doReq(t, http.MethodPost, hs.URL+"/traces",
		strings.NewReader("I 10\nX bogus\n"), "alice")
	if resp.StatusCode != 400 || !strings.Contains(string(b), "upload:2") {
		t.Errorf("malformed upload = %d %s, want 400 naming upload:2", resp.StatusCode, b)
	}

	// Over the body cap: 413, not a parse 400.
	big := strings.Repeat("I 10\n", 64)
	resp, b = doReq(t, http.MethodPost, hs.URL+"/traces", strings.NewReader(big), "alice")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload = %d %s, want 413", resp.StatusCode, b)
	}

	// Within the cap but over the tenant byte quota: 413 naming the quota.
	resp, b = doReq(t, http.MethodPost, hs.URL+"/traces",
		strings.NewReader(strings.Repeat("I 10\n", 20)), "alice")
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(b), "quota") {
		t.Errorf("over-quota upload = %d %s, want 413 naming the quota", resp.StatusCode, b)
	}
}

func TestServerEvalErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{}, true)
	meta := upload(t, hs, binaryTrace(t, 64), "alice")

	cases := []struct {
		name, query string
		status      int
	}{
		{"missing trace", "/eval", 400},
		{"unknown digest", "/eval?trace=sha256:" + strings.Repeat("0", 64), 404},
		{"missing file", "/eval?trace=/no/such/file", 404},
		{"bad chunklen", "/eval?trace=" + meta.Digest + "&chunklen=-1", 400},
		{"bad stride", "/eval?trace=" + meta.Digest + "&stride=zero", 400},
		{"bad mode", "/eval?trace=" + meta.Digest + "&mode=maybe", 400},
		{"bad kernel", "/eval?trace=" + meta.Digest + "&kernel=quantum", 400},
		{"unknown codec", "/eval?trace=" + meta.Digest + "&codes=nope", 422},
		// The async path must reject at admission, not as a JobFailed
		// snapshot discovered by a later poll.
		{"unknown codec on async path", "/eval?trace=" + meta.Digest + "&codes=nope&mode=async", 422},
	}
	for _, tc := range cases {
		resp, b := doReq(t, http.MethodGet, hs.URL+tc.query, nil, "alice")
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d %s, want %d", tc.name, resp.StatusCode, b, tc.status)
		}
		if !strings.Contains(resp.Header.Get("Content-Type"), "json") {
			t.Errorf("%s: error not in the JSON envelope", tc.name)
		}
	}

	// Invalid tenant identifier.
	resp, _ := doReq(t, http.MethodGet, hs.URL+"/eval?trace="+meta.Digest, nil, "bad tenant!")
	if resp.StatusCode != 400 {
		t.Errorf("invalid tenant = %d, want 400", resp.StatusCode)
	}
}

// TestServerKernelSharesCache: results are kernel-invariant, so a
// kernel=scalar request hits the entry a kernel=auto miss stored; a
// kernel that cannot price a requested codec is still refused at
// admission, on the sync and the async path, once the digest is cached.
func TestServerKernelSharesCache(t *testing.T) {
	_, hs := newTestServer(t, Config{}, true)
	meta := upload(t, hs, binaryTrace(t, 512), "alice")
	eval := func(query string) (int, EvalResponse) {
		t.Helper()
		resp, b := doReq(t, http.MethodGet, hs.URL+"/eval?trace="+meta.Digest+query, nil, "alice")
		var got EvalResponse
		if resp.StatusCode == 200 {
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, got
	}
	status, miss := eval("&codes=t0,gray&kernel=auto")
	if status != 200 || miss.Cached {
		t.Fatalf("kernel=auto eval = %d cached=%v, want a 200 miss", status, miss.Cached)
	}
	status, hit := eval("&codes=t0,gray&kernel=scalar")
	if status != 200 || !hit.Cached {
		t.Fatalf("kernel=scalar eval = %d cached=%v, want a 200 hit", status, hit.Cached)
	}
	for i := range miss.Results {
		if hit.Results[i].Transitions != miss.Results[i].Transitions {
			t.Errorf("%s: hit %d != miss %d", miss.Results[i].Codec, hit.Results[i].Transitions, miss.Results[i].Transitions)
		}
	}
	for _, mode := range []string{"sync", "async"} {
		if status, _ := eval("&codes=t0&kernel=plane&mode=" + mode); status != http.StatusUnprocessableEntity {
			t.Errorf("kernel=plane&codes=t0 (%s) = %d, want 422", mode, status)
		}
	}
}

func TestServerRateLimit(t *testing.T) {
	_, hs := newTestServer(t, Config{Quotas: Quotas{RatePerSec: 1, RateBurst: 1}}, true)
	if resp, b := doReq(t, http.MethodGet, hs.URL+"/eval?trace=/no/such", nil, "alice"); resp.StatusCode == 429 {
		t.Fatalf("first request rate-limited: %s", b)
	}
	resp, b := doReq(t, http.MethodGet, hs.URL+"/eval?trace=/no/such", nil, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	// Another tenant has its own bucket.
	if resp, _ := doReq(t, http.MethodGet, hs.URL+"/eval?trace=/no/such", nil, "bob"); resp.StatusCode == 429 {
		t.Error("unrelated tenant rate-limited")
	}
}

func TestNormalizeCodes(t *testing.T) {
	if got := NormalizeCodes(""); fmt.Sprint(got) != fmt.Sprint(PaperCodes) {
		t.Errorf("empty = %v", got)
	}
	if got := NormalizeCodes("t0, gray"); fmt.Sprint(got) != fmt.Sprint([]string{"binary", "t0", "gray"}) {
		t.Errorf("list = %v, want binary-first", got)
	}
	if got := NormalizeCodes("binary,t0"); fmt.Sprint(got) != fmt.Sprint([]string{"binary", "t0"}) {
		t.Errorf("explicit binary duplicated: %v", got)
	}
	if got := NormalizeCodes("all"); len(got) < len(PaperCodes) {
		t.Errorf("all = %v, shorter than the paper set", got)
	}
	_ = codec.Names() // keep the import honest if the assertions change
}
