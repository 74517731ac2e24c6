// Command spbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload over one loopback TCP connection to the serving
// core started in this process, checks every answer against its own
// model of the rows, and prints the metrics. With -trace 1 it issues the
// same statements at each public layer boundary instead and prints the
// per-layer metrics. See README.md.
//
//	go run . -workload warm_read -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "warm_read, cold_read or durable_write")
	seed := flag.Int64("seed", 1, "seed of the data, the probes and the interleaving")
	seconds := flag.Int("seconds", 10, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	repro := flag.Int("repro-ingest", 0, "run this many attempts of the failing ingest INSERT (see repro.go) instead of a workload")
	flag.Parse()
	// Database files go beside the binary (spbench/.out/data when built
	// by run.sh).
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spbench: %v\n", err)
		os.Exit(1)
	}
	dataDir := filepath.Join(filepath.Dir(exe), "data")
	if *repro > 0 {
		if err := reproIngest(filepath.Join(dataDir, "repro_ingest"), *repro); err != nil {
			fmt.Fprintf(os.Stderr, "spbench: repro-ingest: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "spbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b, res, err := run(w, *seed, *seconds, *trace == 1, filepath.Join(dataDir, w.name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "spbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: attempted %d, failed %d, correct %v\n", w.name, *seed, res.Attempted, res.Failed, res.Correct)
	fmt.Printf("  timed loop: %d statements, %d buffer accesses, %d misses (%.2f per statement)\n",
		b.loopStmts, b.loopPool[0], b.loopPool[1], float64(b.loopPool[1])/float64(b.loopStmts))
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and returns its result. Errors are faults
// of the harness or of set-up; wrong answers make Correct false.
func run(w workload, seed int64, seconds int, traced bool, dir string) (*bench, *result, error) {
	b := newBench(w, seed, traced, dir)
	n := setups
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := b.r.e.close(); err != nil {
				return nil, nil, err
			}
			b.fresh()
		}
		if err := b.setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
	}
	if err := b.measure(seconds); err != nil {
		return nil, nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, nil, err
	}
	var layers map[string]metric
	if traced {
		b.answerProbes()
		if layers, err = b.countPass(); err != nil {
			return nil, nil, err
		}
		if err := b.sizes(layers); err != nil {
			return nil, nil, err
		}
	}
	if err := b.r.e.close(); err != nil {
		return nil, nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}

	r := b.r
	for i, p := range r.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	res := &result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed}
	if traced {
		res.Metrics = b.layerMetrics(layers)
	} else {
		res.Metrics = b.endToEnd(float64(size))
	}
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s has no samples", n)
		}
	}
	return b, res, nil
}

// endToEnd computes the metrics a user of the system sees, from the
// server-boundary samples of the untraced run.
func (b *bench) endToEnd(size float64) map[string]metric {
	r := b.r
	p50 := func(class string) metric { return metric{r.samplesOf(class)[atServer].p50(), "us"} }
	m := map[string]metric{
		"setup_s":            {quantile(b.setupS, 0.5), "s"},
		"stmts_per_s":        {float64(r.loopDone) / (r.loopUS / 1e6), "1/s"},
		"insert_p50_us":      p50("insert"),
		"update_p50_us":      p50("update"),
		"recovery_s":         {quantile(b.recoveryS, 0.5), "s"},
		"disk_bytes_per_row": {size / float64(b.liveRows()), "B/row"},
	}
	for _, c := range readClasses {
		m[c+"_p50_us"] = p50(c)
	}
	m["batch_insert_rows_per_s"] = metric{batchRows / (r.samplesOf(b.batchClass())[atServer].p50() / 1e6), "rows/s"}
	return m
}

// batchClass names the 100-row INSERTs batch_insert_rows_per_s covers
// (100 rows over their median time):
// the timed loop's on durable_write, the load's on the read workloads,
// whose loops write nothing.
func (b *bench) batchClass() string {
	if b.w.durable {
		return "batch"
	}
	return "load"
}
