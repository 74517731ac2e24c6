package main

import (
	"math"
	"testing"
)

// TestWorkloadsRunClean runs each workload for a second and requires
// every answer to match the oracle, no operation to fail, and every
// metric to be a positive number.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full set-up of every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, res, err := run(w, 11, 1, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, b.r.problems)
			}
			if len(res.Metrics) != 13 {
				t.Errorf("%d end-to-end metrics, want 13", len(res.Metrics))
			}
			for n, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s = %v %q", n, m.Value, m.Unit)
				}
			}
		})
	}
}

// TestTracedRun checks that the traced run answers correctly at every
// boundary and yields every per-layer metric.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full set-up")
	}
	b, res, err := run(workloads[0], 12, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct %v, failed %d: %v", res.Correct, res.Failed, b.r.problems)
	}
	if len(res.Metrics) != 54 {
		t.Errorf("%d per-layer metrics, want 54", len(res.Metrics))
	}
	if m := res.Metrics["storage.misses_per_op"]; m.Value != 0 {
		t.Errorf("warm_read traced loop took %v misses per statement, want 0", m.Value)
	}
	for _, n := range []string{"wal.fsyncs_per_commit", "storage.hit_ratio"} {
		if m := res.Metrics[n]; m.Value != 1 {
			t.Errorf("%s = %v, want 1", n, m.Value)
		}
	}
}
