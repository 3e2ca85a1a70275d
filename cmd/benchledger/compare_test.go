package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compare marks a metric whose raw change stands out of the raw runs' spread
// and points against the quiet-host change, and leaves alone one whose raw
// change is within that spread.
func TestCompareFlagsRawChangeAgainstQuietChange(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// b's quiet p50 is a little better than a's while its raw p50 is 30%
	// worse; b's raw throughput is 1% worse, well within the raw spread.
	ledger := func(name string, p50, rawP50, ops, rawOps float64) string {
		var lines []string
		for i, jitter := range []float64{0.96, 0.98, 1, 1.02, 1.04} {
			line, err := json.Marshal(runRecord{
				Workload: "app_woven", Seed: int64(i),
				Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
					"op_p50_us": {Value: p50 * jitter, Unit: "us"},
					"ops_per_s": {Value: ops * jitter, Unit: "1/s"},
				}},
				Raw: map[string]float64{"op_p50_us": rawP50 * jitter, "ops_per_s": rawOps * jitter},
			})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(line))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := ledger("a.jsonl", 100, 200, 1000, 500)
	b := ledger("b.jsonl", 98, 260, 1010, 495)
	var stdout, stderr bytes.Buffer
	if code := compareMain([]string{"-bench", spec, a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s%s", code, stdout.String(), stderr.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		flagged := strings.Contains(line, "raw change disagrees")
		switch {
		case strings.Contains(line, "op_p50_us") && !flagged:
			t.Errorf("p50 not flagged: %s", line)
		case strings.Contains(line, "ops_per_s") && flagged:
			t.Errorf("throughput flagged: %s", line)
		}
	}
}
