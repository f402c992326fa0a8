package main

// Self-test of the benchmark in short mode: every workload runs at
// reduced size, untraced and traced, and must print exactly the metrics
// BENCHMARK.json names, each with its unit; and a wrong pinned digest
// must make the run fail. Run with `go test` in this directory.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func runShort(t *testing.T, workload, trace, pins string) (int, result, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run([]string{"--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", trace,
		"--short", "--pins", pins, "--workdir", t.TempDir()}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, trace, err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			code, res, stderr := runShort(t, w.name, trace, "pins.json")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.name, trace, code, res, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v (present %v), want unit %q", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func TestWrongPinFails(t *testing.T) {
	pins := filepath.Join(t.TempDir(), "pins.json")
	bad := `{"default_seed": 1, "digests": {"short": {"fleet-store": {"1": "0000"}}}}`
	if err := os.WriteFile(pins, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	code, res, stderr := runShort(t, "fleet-store", "0", pins)
	if code == 0 || res.Correct || res.Failed != res.Attempted {
		t.Fatalf("a wrong pinned digest passed: exit %d, result %+v", code, res)
	}
	if !strings.Contains(stderr, "simulated-output digest") {
		t.Errorf("failure does not name the digest:\n%s", stderr)
	}
}
