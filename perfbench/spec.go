package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's definition: its workloads and every metric it prints.
// BENCHMARK.json at the repository root is generated from these tables
// (go run . -write-spec ../BENCHMARK.json) and a test pins the
// committed file to them, so the names a run prints and the names the
// file declares cannot drift apart.

// runSeconds is how long one run measures.
const runSeconds = 40

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"price-file", "/eval job path without HTTP: BETR decode and aggregate kernels do the work; dist, serve, per-line counting and seeding do none"},
	{"sweep-peers", "dist.Sweep over two loopback peers with per-line counts: plane kernels, boundary seeding and framing dominate; aggregate routing unused"},
	{"serve-mixed", "two tenants in a closed loop of upload, sync miss and cache hit (every 8th async): HTTP, ingest, cache and queue work; pricing is small"},
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(f float64) *float64 { return &f }

// endToEnd are the metrics every untraced run prints, on every
// workload. An op is one EvaluateStreaming call (price-file), one
// dist.Sweep (sweep-peers) or one client iteration (serve-mixed).
//
// The time bounds are wide because the box is: on a shared 2-vCPU VM a
// pure XOR+popcount pass drifts by about ±8% over tens of seconds, and
// every timed metric drifts with it (README.md, Steadiness).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"meps", "Mentries/s", "higher", bound(0.25)},
	{"op_p50_ms", "ms", "lower", bound(0.25)},
	{"cpu_ms_per_op", "ms", "lower", bound(0.25)},
	{"alloc_mib_per_op", "MiB", "lower", bound(0.1)},
}

// The seven codes of the paper's tables, at stride 4.
var paperCodes = []string{"binary", "gray", "t0", "businvert", "t0bi", "dualt0", "dualt0bi"}

// perLayer are the metrics every traced run prints. Each row is timed
// on the inputs of the workload it explains (see README.md).
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"trace.decode_ns", "ns/entry", "lower", nil},
		{"trace.index_ns", "ns/entry", "lower", nil},
	}
	for _, c := range paperCodes {
		ms = append(ms, metricSpec{"codec." + c + ".agg_ns", "ns/entry", "lower", nil})
	}
	ms = append(ms,
		metricSpec{"codec.binary.agg_scalar_ns", "ns/entry", "lower", nil},
		metricSpec{"codec.gray.agg_scalar_ns", "ns/entry", "lower", nil},
	)
	for _, c := range paperCodes {
		ms = append(ms, metricSpec{"codec." + c + ".perline_ns", "ns/entry", "lower", nil})
	}
	return append(ms,
		metricSpec{"codec.seed_ns", "ns/entry", "lower", nil},
		metricSpec{"bus.count_agg_ns", "ns/entry", "lower", nil},
		metricSpec{"bus.count_perline_ns", "ns/entry", "lower", nil},
		metricSpec{"bus.count_bitsliced_ns", "ns/entry", "lower", nil},
		metricSpec{"core.fanout_ns", "ns/entry", "lower", nil},
		metricSpec{"roofline.memmove_ns", "ns/entry", "lower", nil},
		metricSpec{"roofline.xor_popcount_ns", "ns/entry", "lower", nil},
		metricSpec{"dist.sweep_ns", "ns/entry", "lower", nil},
		metricSpec{"dist.serial_ns", "ns/entry", "lower", nil},
		metricSpec{"dist.speedup", "x", "higher", nil},
		metricSpec{"dist.lockstep_ns", "ns/entry", "lower", nil},
		metricSpec{"dist.pipe_ns", "ns/entry", "lower", nil},
		metricSpec{"dist.frames", "count", "lower", nil},
		metricSpec{"dist.bytes_sent", "B", "lower", nil},
		metricSpec{"dist.bytes_recv", "B", "lower", nil},
		metricSpec{"dist.ship_bytes", "B", "lower", nil},
		metricSpec{"dist.redispatches", "count", "lower", nil},
		metricSpec{"serve.ingest_ms", "ms", "lower", nil},
		metricSpec{"serve.evaluate_ms", "ms", "lower", nil},
		metricSpec{"serve.cache_get_us", "us", "lower", nil},
		metricSpec{"serve.iter_per_s", "1/s", "higher", nil},
		metricSpec{"serve.upload_p50_ms", "ms", "lower", nil},
		metricSpec{"serve.sync_p50_ms", "ms", "lower", nil},
		metricSpec{"serve.sync_p99_ms", "ms", "lower", nil},
		metricSpec{"serve.async_p50_ms", "ms", "lower", nil},
		metricSpec{"serve.hit_p50_ms", "ms", "lower", nil},
		metricSpec{"serve.queue_wait_ms", "ms", "lower", nil},
		metricSpec{"serve.http_ms", "ms", "lower", nil},
		metricSpec{"serve.cache_hit_ratio", "ratio", "higher", nil},
		metricSpec{"serve.rejected", "count", "lower", nil},
	)
}()

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}); err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return buf.Bytes()
}
