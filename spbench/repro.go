package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
)

// The ingest reproducer shows a fault the benchmark cannot keep as a
// counted failure, because its outcome drifts from attempt to attempt.
// A 20k-row kd-tree-indexed table is loaded, the database is reopened
// with 48 pool pages per file, and 200-row INSERTs of random points,
// eight fixed batches in turn, are attempted against it. No-steal
// chunking caps the rows per chunk (4 × PoolPages) but not the distinct
// index pages random keys dirty in one pool shard, so the first attempts
// fail with "buffer pool shard exhausted". A failed INSERT does not undo
// all of its index changes, so later attempts fail on a dangling node
// reference or an overflow chain that reaches an inner node, and some
// succeed.

const (
	reproRows    = 20000
	reproBatch   = 200
	reproBatches = 8
	reproSeed    = 424242
	reproPool    = 48
)

// reproIngest runs attempts ingest INSERTs and prints each outcome.
func reproIngest(dir string, attempts int) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	e, err := openEnv(executor.Options{Dir: dir, WAL: true})
	if err != nil {
		return err
	}
	insert := func(pts []catalog.Tuple) string {
		return insertStmt("load", "ingest", pts).sql
	}
	tuples := func(n int, seed int64, firstID int) []catalog.Tuple {
		var out []catalog.Tuple
		for i, p := range datagen.Points(n, seed, world) {
			out = append(out, pointTuple(p, int64(firstID+i)))
		}
		return out
	}
	stmts := []string{"CREATE TABLE ingest (p POINT, id INT)", "CREATE INDEX ingest_p ON ingest USING spgist (p)"}
	rows := tuples(reproRows, reproSeed, 1)
	for i := 0; i < len(rows); i += batchRows {
		stmts = append(stmts, insert(rows[i:i+batchRows]))
	}
	for _, q := range append(stmts, "CHECKPOINT") {
		if _, err := e.cli.Exec(q); err != nil {
			e.close()
			return fmt.Errorf("load: %w", err)
		}
	}
	if err := e.close(); err != nil {
		return err
	}
	if e, err = openEnv(executor.Options{Dir: dir, WAL: true, PoolPages: reproPool}); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer e.close()
	batches := tuples(reproBatches*reproBatch, reproSeed+1, reproRows+1)
	counts := make(map[string]int)
	for a := 0; a < attempts; a++ {
		b := a % reproBatches
		_, err := e.cli.Exec(insert(batches[b*reproBatch : (b+1)*reproBatch]))
		outcome := "ok"
		if err != nil {
			outcome = strings.TrimPrefix(err.Error(), "server: ")
		}
		counts[outcome]++
		fmt.Printf("attempt %d batch %d: %s\n", a, b, outcome)
	}
	t, err := e.db.Table("ingest")
	if err != nil {
		return err
	}
	for o, n := range counts {
		fmt.Printf("%5d × %s\n", n, o)
	}
	fmt.Printf("rows now: %d (loaded %d)\n", t.RowCount(), reproRows)
	return nil
}
