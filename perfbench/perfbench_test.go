package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinySizes keeps every workload to well under a second. The large
// upload stays just above the daemon's sync threshold (2^16 entries)
// so serve-mixed still takes its async path.
var tinySizes = sizes{
	fileEntries:  1 << 12,
	smallEntries: 1 << 9,
	largeEntries: 1<<16 + 64,
	smallBases:   2,
	largeBases:   1,
	burst:        8,
	layerReps:    2,
	setupReps:    map[string]int{"price-file": 2, "sweep-peers": 2, "serve-mixed": 2},
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with: go run . -write-spec ../BENCHMARK.json")
	}
}

// lastLine parses the result object a run prints last.
func lastLine(t *testing.T, out string) (res struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

func names(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func TestWorkloadsTiny(t *testing.T) {
	runs := []struct {
		workload string
		traced   bool
		want     []metricSpec
	}{
		{"price-file", false, endToEnd},
		{"sweep-peers", false, endToEnd},
		{"serve-mixed", false, endToEnd},
		{"sweep-peers", true, perLayer},
	}
	for _, r := range runs {
		name := r.workload
		if r.traced {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			rep, err := execute(tinySizes, r.workload, 7, 200*time.Millisecond, r.traced)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := emit(&out, rep, r.traced); err != nil {
				t.Fatal(err)
			}
			res := lastLine(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.failures)
			}
			var got []string
			for k, v := range res.Metrics {
				got = append(got, k)
				if v.Value == 0 && !strings.HasPrefix(k, "dist.") && !strings.HasPrefix(k, "serve.") {
					t.Errorf("metric %s reads 0", k)
				}
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(names(r.want), " ") {
				t.Errorf("printed metrics %v, BENCHMARK.json declares %v", got, names(r.want))
			}
		})
	}
}

func TestOracleCatchesOffByOne(t *testing.T) {
	in, err := makeInputs(tinySizes, 3, t.TempDir(), true, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := priceFile(in.file.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResults(got, in.file.ref, false); err != nil {
		t.Fatalf("correct results rejected: %v", err)
	}
	got[3].Transitions++
	if checkResults(got, in.file.ref, false) == nil {
		t.Fatal("an off-by-one transition count passed the oracle")
	}
	got[3].Transitions--
	got[3].PerLine = append([]int64(nil), in.file.ref[3].PerLine...)
	for i := range got {
		if i != 3 {
			got[i].PerLine = in.file.ref[i].PerLine
		}
	}
	got[3].PerLine[5]++
	if checkResults(got, in.file.ref, true) == nil {
		t.Fatal("an off-by-one per-line count passed the oracle")
	}
}

func TestInputsFollowSeed(t *testing.T) {
	digest := func(seed int64) string {
		in, err := makeInputs(tinySizes, seed, t.TempDir(), true, true)
		if err != nil {
			t.Fatal(err)
		}
		d, err := in.digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := digest(11), digest(11), digest(12)
	if a != b {
		t.Errorf("seed 11 gave two input digests: %s, %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 11 and 12 gave the same input digest %s", a)
	}
}

// digest content-addresses all of a run's inputs: the file bytes and
// every base upload body.
func (in *inputs) digest() (string, error) {
	h := sha256.New()
	if in.file != nil {
		data, err := os.ReadFile(in.file.path)
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	for _, b := range append(append([]*uploadBody{}, in.small...), in.large...) {
		h.Write(b.bytes(string(bytes.Repeat([]byte{'x'}, uploadNameLen))))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
