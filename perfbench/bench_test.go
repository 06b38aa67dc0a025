package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test drives the benchmark at toy sizes through the same entry
// point as the command: go test ./... from perfbench/.

const toySeed = "3"

// spec is the part of BENCHMARK.json the self-test checks output against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// bench runs the benchmark with args and parses the last line of its
// standard output.
func bench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last output line %q is not a result: %v\nstderr:\n%s", args, lines[len(lines)-1], err, stderr.String())
	}
	return code, res, stderr.String()
}

// useToy runs the benchmark at toy sizes in a directory of the test's own
// until the test ends.
func useToy(t *testing.T) {
	t.Helper()
	size, work := sizeName, workDir
	sizeName, workDir = "toy", t.TempDir()
	t.Cleanup(func() { sizeName, workDir = size, work })
}

func toyArgs(workload, trace string) []string {
	return []string{"--workload", workload, "--seed", toySeed, "--seconds", "0", "--trace", trace}
}

func TestEveryWorkloadPrintsItsNamedMetrics(t *testing.T) {
	s := readSpec(t)
	useToy(t)
	for _, w := range s.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": s.EndToEnd, "1": s.PerLayer} {
			code, res, stderr := bench(t, toyArgs(w.Name, trace)...)
			if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s --trace %s: exit %d, result %+v\nstderr:\n%s", w.Name, trace, code, res, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func TestTamperedDigestFails(t *testing.T) {
	useToy(t)
	recorded := recordedDigests
	recordedDigests = []byte(`{"` + digestKey("dblp-wal", "toy", 3) + `": "sha256:0000"}`)
	t.Cleanup(func() { recordedDigests = recorded })
	code, res, stderr := bench(t, toyArgs("dblp-wal", "0")...)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("a tampered digest passed: exit %d, result %+v", code, res)
	}
	if !strings.Contains(stderr, "differs from the digest recorded") {
		t.Errorf("failure does not name the digest:\n%s", stderr)
	}
}

func TestTracedCrawlReproducesUntracedDigest(t *testing.T) {
	useToy(t)
	sc := scales[sizeName]
	for _, w := range workloads {
		in, err := prepareInputs(workDir, w.data, sizeName, sc, 3)
		if err != nil {
			t.Fatal(err)
		}
		opt := &options{workload: w, seed: 3, work: workDir}
		plain, err := referenceCrawl(opt, sc, in)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		tr, err := tracedCrawl(w, sc, in, 3, newCrawlPaths(filepath.Join(workDir, "traced", w.name)), "test")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if tr.digest != plain.digest {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, tr.digest, plain.digest)
		}
	}
}
