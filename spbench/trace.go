package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/heap"
	"repro/internal/storage"
)

// The traced run's counting pass, after its timed loop: allocations per
// call at each boundary, distinct index pages per operation, and the
// B+-tree and R-tree twins built over the same keys. None of it feeds an
// end-to-end metric.

// rid encodes a row id as the twins' record pointer.
func rid(id int64) heap.RID {
	return heap.RID{Page: storage.PageID(id >> 16), Slot: uint16(id)}
}

func ridID(r heap.RID) int64 { return int64(r.Page)<<16 | int64(r.Slot) }

// allocsPerCall counts heap allocations per call of f over allocCalls
// calls; the server is idle meanwhile, so they are f's own.
func allocsPerCall(f func(i int) error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocCalls; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocCalls, nil
}

func (b *bench) probes(class string, n int) []*stmt {
	out := make([]*stmt, n)
	for i := range out {
		out[i] = b.probe(class)
	}
	return out
}

// scanAM runs one read against an index, returning the candidates.
func scanAM(idx am.Index, s *stmt) ([]heap.RID, error) {
	var rids []heap.RID
	if s.wantD != nil {
		it, err := idx.NNScan(s.nnArg)
		if err != nil {
			return nil, err
		}
		for len(rids) < nnK {
			r, _, ok := it()
			if !ok {
				break
			}
			rids = append(rids, r)
		}
		return rids, nil
	}
	err := idx.Scan(s.pred.Op, s.pred.Arg, func(r heap.RID) bool {
		rids = append(rids, r)
		return true
	})
	return rids, err
}

func (b *bench) countPass() (map[string]metric, error) {
	m := make(map[string]metric)
	db := b.r.e.db
	words, err := db.Table("words")
	if err != nil {
		return nil, err
	}
	pts, err := db.Table("pts")
	if err != nil {
		return nil, err
	}
	tableOf := map[string]*executor.Table{"words": words, "pts": pts}

	exact, point, nn := b.probes("exact", allocCalls), b.probes("point", allocCalls), b.probes("nn", allocCalls)
	sess := b.r.e.sess
	allocs := []struct {
		name string
		f    func(i int) error
	}{
		{"sqlmini.exact_allocs", func(i int) error { _, err := sess.Exec(exact[i].sql); return err }},
		{"executor.exact_allocs", func(i int) error {
			_, err := words.Select(exact[i].pred, func(executor.Row) bool { return true })
			return err
		}},
		{"executor.point_allocs", func(i int) error {
			_, err := pts.Select(point[i].pred, func(executor.Row) bool { return true })
			return err
		}},
		{"am.exact_allocs", func(i int) error { _, err := scanAM(words.Indexes[0].Idx, exact[i]); return err }},
		{"am.point_allocs", func(i int) error { _, err := scanAM(pts.Indexes[0].Idx, point[i]); return err }},
		{"am.nn_allocs", func(i int) error { _, err := scanAM(pts.Indexes[0].Idx, nn[i]); return err }},
	}
	for _, a := range allocs {
		v, err := allocsPerCall(a.f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		m[a.name] = metric{v, "count"}
	}

	for _, c := range []string{"exact", "point", "range", "nn"} {
		total := 0
		for _, s := range b.probes(c, pageProbes) {
			idx := tableOf[s.table].Indexes[0].Idx
			idx.StartPageTrace()
			if _, err := scanAM(idx, s); err != nil {
				return nil, err
			}
			total += idx.PageTraceCount()
		}
		m["am."+c+"_pages"] = metric{float64(total) / pageProbes, "pages"}
	}

	if err := b.twins(m); err != nil {
		return nil, err
	}
	return m, nil
}

// twins builds a B+-tree over the words and an R-tree over the points,
// each on its own in-memory pool through am.New, and times the same
// probes against them: the paper's baselines, AM to AM.
func (b *bench) twins(m map[string]metric) error {
	newIdx := func(opclass string) (am.Index, error) {
		return am.New(opclass, storage.NewBufferPool(storage.NewMem(storage.DefaultPageSize), 2048), true)
	}
	bt, err := newIdx("btree_text")
	if err != nil {
		return err
	}
	for _, r := range b.d.words.sorted {
		if err := bt.Insert(catalog.NewText(r.w), rid(r.id)); err != nil {
			return err
		}
	}
	rt, err := newIdx("rtree_point")
	if err != nil {
		return err
	}
	for _, r := range b.d.points.rows {
		if err := rt.Insert(catalog.NewPoint(r.p), rid(r.id)); err != nil {
			return err
		}
	}
	runs := []struct {
		name, class string
		idx         am.Index
	}{
		{"btree.exact_us", "exact", bt},
		{"btree.prefix_us", "prefix", bt},
		{"btree.pattern_us", "pattern", bt},
		{"rtree.point_us", "point", rt},
		{"rtree.range_us", "range", rt},
	}
	for _, run := range runs {
		var lat samples
		for _, s := range b.probes(run.class, twinProbes) {
			t0 := time.Now()
			rids, err := scanAM(run.idx, s)
			lat = append(lat, micros(t0))
			if err != nil {
				return fmt.Errorf("%s: %w", run.name, err)
			}
			b.checkTwin(run.name, s, rids)
		}
		m[run.name] = metric{lat.p50(), "us"}
	}
	total := 0
	for _, s := range b.probes("point", pageProbes) {
		rt.StartPageTrace()
		if _, err := scanAM(rt, s); err != nil {
			return err
		}
		total += rt.PageTraceCount()
	}
	m["rtree.point_pages"] = metric{float64(total) / pageProbes, "pages"}
	return nil
}

// checkTwin rechecks a twin's candidates (the B+-tree answers '?=' from
// a prefix range, so it may be lossy) against the model and compares
// them with the oracle.
func (b *bench) checkTwin(name string, s *stmt, rids []heap.RID) {
	var ids []int64
	for _, r := range rids {
		id := ridID(r)
		var key catalog.Datum
		if s.table == "words" {
			key = catalog.NewText(b.d.words.byID[id])
		} else {
			p, _ := b.d.points.get(id)
			key = catalog.NewPoint(p)
		}
		if satisfies(s.pred, key) {
			ids = append(ids, id)
		}
	}
	if got := sortIDs(ids); !slices.Equal(got, s.want) {
		b.r.problem("%s: %s: ids %v, want %v", name, short(s.sql), got, s.want)
	}
}

// sizes adds the per-row sizes of the indexes and heaps, read after a
// checkpoint so the files hold every page.
func (b *bench) sizes(m map[string]metric) error {
	db := b.r.e.db
	if err := db.Checkpoint(); err != nil {
		return err
	}
	var heapBytes int64
	for _, name := range []string{"words", "pts"} {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		rows := float64(t.RowCount())
		key := "am.trie_bytes_per_row"
		if name == "pts" {
			key = "am.kdtree_bytes_per_row"
		}
		m[key] = metric{float64(t.Indexes[0].Idx.SizeBytes()) / rows, "B/row"}
		heapBytes += int64(t.Heap.NumPages()) * storage.DefaultPageSize
	}
	m["heap.bytes_per_row"] = metric{float64(heapBytes) / float64(b.d.words.len()+b.d.points.len()), "B/row"}
	return nil
}

// layerMetrics assembles the per-layer metrics: self costs as the
// difference of medians at adjacent boundaries, plus the counts.
func (b *bench) layerMetrics(m map[string]metric) map[string]metric {
	r := b.r
	lat := func(class string, at layer) float64 { return r.samplesOf(class)[at].p50() }
	self := func(class string, at layer) metric { return metric{lat(class, at) - lat(class, at+1), "us"} }
	for _, c := range []string{"exact", "nn", "insert"} {
		m["server."+c+"_self_us"] = self(c, atServer)
	}
	for _, c := range []string{"exact", "point", "nn", "insert", "update"} {
		m["server."+c+"_p99_us"] = metric{r.samplesOf(c)[atServer].p99(), "us"}
	}
	for _, c := range []string{"exact", "point", "nn", "insert"} {
		m["sqlmini."+c+"_self_us"] = self(c, atSQL)
	}
	m["executor.plan_us"] = metric{r.plan.p50(), "us"}
	for _, c := range []string{"exact", "point", "range", "nn"} {
		m["executor."+c+"_self_us"] = self(c, atExec)
	}
	m["executor.insert_us"] = metric{lat("insert", atExec), "us"}
	m["executor.batch_insert_us"] = metric{lat(b.batchClass(), atExec), "us"}
	m["executor.checkpoint_ms"] = metric{lat("checkpoint", atExec) / 1e3, "ms"}
	m["executor.vacuum_ms"] = metric{lat("vacuum", atExec) / 1e3, "ms"}
	for _, c := range readClasses {
		m["am."+c+"_us"] = metric{lat(c, atAM), "us"}
	}
	ops := float64(r.poolOps)
	m["storage.accesses_per_op"] = metric{float64(r.pool.Accesses) / ops, "pages"}
	m["storage.misses_per_op"] = metric{float64(r.pool.Misses) / ops, "pages"}
	m["storage.evictions_per_op"] = metric{float64(r.pool.Evictions) / ops, "pages"}
	m["storage.dirty_writes_per_op"] = metric{float64(r.pool.DirtyWrites) / ops, "pages"}
	m["storage.hit_ratio"] = metric{float64(r.pool.Hits) / float64(r.pool.Accesses), "ratio"}
	m["wal.bytes_per_row"] = metric{float64(r.walBytes) / float64(r.walRows), "B/row"}
	m["wal.fsyncs_per_commit"] = metric{float64(r.walSyncs) / float64(r.walCommits), "count"}
	m["wal.records_per_commit"] = metric{float64(r.walRecords) / float64(r.walCommits), "count"}
	return m
}
