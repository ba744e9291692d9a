package main

import (
	"fmt"
	"time"

	"busenc/internal/codec"
	"busenc/internal/core"
	"busenc/internal/dist"
	"busenc/internal/trace"
	"busenc/internal/workload"
)

// report is what one run found: ops attempted, ops that failed (an
// error, a non-2xx response or an oracle mismatch) and the metrics.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	failures  []string // first few failure messages, for stderr
}

// record counts one checked op.
func (r *report) record(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// priceFile is the /eval job path without HTTP: open the BETR file and
// price it once through the streaming fan-out over the paper's codes.
func priceFile(path string) ([]codec.Result, error) {
	r, closer, err := trace.OpenFile(path, nil)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return core.EvaluateStreaming(r, r.Width(), paperCodes, core.DefaultOptions,
		core.FanoutConfig{Verify: codec.VerifySampled, Kernel: codec.KernelAuto})
}

// runPriceFile prices the file one op at a time until the deadline.
// Set-up is opening the file and the warm-up op, done setupReps times.
func runPriceFile(sz sizes, in *inputs, d time.Duration) (*report, error) {
	rep := &report{}
	f := in.file
	var setup []time.Duration
	for i := 0; i < sz.setupReps["price-file"]; i++ {
		s, err := measure(func() error {
			got, err := priceFile(f.path)
			if err == nil {
				err = checkResults(got, f.ref, false)
			}
			return err
		})
		rep.record(err)
		setup = append(setup, s.wall)
	}
	samples, lat := timedOps(rep, d, func() (int64, error) {
		got, err := priceFile(f.path)
		if err == nil {
			err = checkResults(got, f.ref, false)
		}
		return int64(f.stream.Len()), err
	})
	rep.metrics = endToEndMetrics(setup, samples, lat)
	return rep, nil
}

// timedOps runs op one at a time until d has passed, at least three
// times, recording each as a sample.
func timedOps(rep *report, d time.Duration, op func() (int64, error)) ([]sample, []time.Duration) {
	var samples []sample
	var lat []time.Duration
	deadline := time.Now().Add(d)
	for len(samples) < 3 || time.Now().Before(deadline) {
		var entries int64
		s, err := measure(func() error {
			var err error
			entries, err = op()
			return err
		})
		rep.record(err)
		s.entries = entries
		samples = append(samples, s)
		lat = append(lat, s.wall)
	}
	return samples, lat
}

// sweepSpecs are the paper's codes as dist codec specs.
func sweepSpecs() ([]dist.CodecSpec, error) {
	specs := make([]dist.CodecSpec, len(paperCodes))
	for i, name := range paperCodes {
		var err error
		if specs[i], err = dist.SpecFor(name, workload.Width, core.DefaultOptions); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// sweepOpts are sweep-peers' options: per-line counts over the given
// peers with the default shard count and window.
func sweepOpts(specs []dist.CodecSpec, peers []*daemon, ns *dist.NetStats) dist.Opts {
	addrs := make([]string, len(peers))
	for i, p := range peers {
		addrs[i] = p.addr
	}
	return dist.Opts{
		Peers:   addrs,
		Codecs:  specs,
		PerLine: true,
		Verify:  codec.VerifySampled,
		Kernel:  codec.KernelAuto,
		Net:     ns,
	}
}

// startPeers starts n dist peers with fresh stores.
func startPeers(dir string, n int) ([]*daemon, error) {
	var peers []*daemon
	for i := 0; i < n; i++ {
		p, err := startDaemon(dir, false)
		if err != nil {
			stopAll(peers)
			return nil, err
		}
		peers = append(peers, p)
	}
	return peers, nil
}

func stopAll(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sweepPeersN is the peer count of sweep-peers.
const sweepPeersN = 2

// runSweepPeers sweeps the file over two in-process peers until the
// deadline. Set-up is starting the peers and the cold sweep that ships
// the trace into their stores, done setupReps times with fresh peers;
// the last set of peers serves the timed sweeps, none of which may ship
// a byte.
func runSweepPeers(sz sizes, in *inputs, dir string, d time.Duration) (rep *report, err error) {
	rep = &report{}
	f := in.file
	specs, err := sweepSpecs()
	if err != nil {
		return nil, err
	}
	var setup []time.Duration
	var peers []*daemon
	defer func() {
		if serr := stopAll(peers); serr != nil && err == nil {
			err = serr
		}
	}()
	for i := 0; i < sz.setupReps["sweep-peers"]; i++ {
		if err := stopAll(peers); err != nil {
			return nil, err
		}
		peers = nil
		var ns dist.NetStats
		s, serr := measure(func() error {
			var err error
			if peers, err = startPeers(dir, sweepPeersN); err != nil {
				return err
			}
			got, err := dist.Sweep(f.path, sweepOpts(specs, peers, &ns))
			if err != nil {
				return err
			}
			return checkResults(got, f.ref, true)
		})
		if peers == nil {
			return nil, serr
		}
		if serr == nil && ns.TraceShipBytes.Load() == 0 {
			serr = fmt.Errorf("cold sweep shipped no trace bytes")
		}
		rep.record(serr)
		setup = append(setup, s.wall)
	}
	samples, lat := timedOps(rep, d, func() (int64, error) {
		var ns dist.NetStats
		got, err := dist.Sweep(f.path, sweepOpts(specs, peers, &ns))
		if err != nil {
			return 0, err
		}
		if b := ns.TraceShipBytes.Load(); b != 0 {
			return 0, fmt.Errorf("warm sweep shipped %d trace bytes", b)
		}
		return int64(f.stream.Len()), checkResults(got, f.ref, true)
	})
	rep.metrics = endToEndMetrics(setup, samples, lat)
	return rep, nil
}
