// Command perfbench is the repository's benchmark. It generates a
// workload's inputs from a seed, prices them through the layers'
// public functions, checks every result against the codec.Run oracle
// and prints each metric by name and unit, with one JSON object as the
// last line of standard output:
//
//	go run . --workload price-file --seed 1 --seconds 15 --trace 0
//
// --trace 0 runs the workload and prints the end-to-end metrics;
// --trace 1 times the layers one public call at a time and prints the
// per-layer metrics. -write-spec regenerates BENCHMARK.json. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: price-file, sweep-peers or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	writeSpec := fs.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeSpec != "" {
		if err := os.WriteFile(*writeSpec, specJSON(), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == *name
	}
	if !known || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of price-file, sweep-peers, serve-mixed, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	rep, err := execute(defaultSizes, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := emit(stdout, rep, *traced == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: failed op:", f)
	}
	return 0
}

// execute generates the inputs into a private scratch directory,
// removed on return, and runs the workload or the traced layer run.
func execute(sz sizes, name string, seed int64, d time.Duration, traced bool) (rep *report, err error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	withFile := traced || name != "serve-mixed"
	withBodies := traced || name == "serve-mixed"
	in, err := makeInputs(sz, seed, dir, withFile, withBodies)
	if err != nil {
		return nil, err
	}
	if traced {
		return runLayers(sz, in, dir, d)
	}
	switch name {
	case "price-file":
		return runPriceFile(sz, in, d)
	case "sweep-peers":
		return runSweepPeers(sz, in, dir, d)
	default:
		return runServeMixed(sz, in, dir, d)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric of the run's kind by name and unit, then
// the result object as the last line. A metric the run did not
// produce, or a value that is not a finite number, is an error.
func emit(w io.Writer, rep *report, traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := make(map[string]metricOut, len(specs))
	for _, m := range specs {
		v, ok := rep.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: no finite value measured", m.Name)
		}
		out[m.Name] = metricOut{v, m.Unit}
		fmt.Fprintf(w, "%-28s %16.6f %s\n", m.Name, v, m.Unit)
	}
	if len(rep.metrics) != len(specs) {
		return fmt.Errorf("run measured %d metrics, the spec has %d", len(rep.metrics), len(specs))
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", rep.attempted, rep.failed)
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
