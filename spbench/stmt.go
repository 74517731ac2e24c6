package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/storage"
	"repro/internal/wal"
)

// layer is a public boundary a statement can be issued at. The traced
// run issues the same statements at each of them in turn; a layer's self
// cost is the difference between the medians at adjacent boundaries.
type layer int

const (
	atServer layer = iota // server.Client.Exec over the loopback connection
	atSQL                 // sqlmini.Session.Exec in process
	atExec                // executor.Table (and DB for maintenance)
	atAM                  // am.Index of the table's index
	nLayers
)

// stmt is one operation in all the forms the layers take, with what
// the oracle expects of it.
type stmt struct {
	class string // metric class: exact, prefix, pattern, point, range, nn, insert, update, delete, load, batch, vacuum, checkpoint
	sql   string
	table string

	pred  *executor.Pred // reads, UPDATE, DELETE
	nnArg catalog.Datum  // nearest-neighbour query point
	rows  []catalog.Tuple
	sets  []executor.ColUpdate

	want     []int64   // reads: ids of the matching rows, ascending
	wantD    []float64 // nn: the nnK smallest distances, ascending
	affected int       // writes: rows the statement must report
	apply    func()    // updates the model once the write is acknowledged
}

func (s *stmt) isRead() bool { return s.want != nil || s.wantD != nil }

// isWrite reports a DML statement: one commit of its own.
func (s *stmt) isWrite() bool { return s.rows != nil || s.sets != nil || s.class == "delete" }

func (s *stmt) isMaintenance() bool { return s.class == "vacuum" || s.class == "checkpoint" }

func vacuumStmt(table string) *stmt {
	return &stmt{class: "vacuum", table: table, sql: "VACUUM " + table}
}

func checkpointStmt() *stmt { return &stmt{class: "checkpoint", sql: "CHECKPOINT"} }

// outcome is a statement's answer in the oracle's terms.
type outcome struct {
	ids      []int64
	pts      []geom.Point // the rows' points, in answer order (nn)
	affected int
}

// runner issues statements, times them, checks their answers and keeps
// the counts. Only the call into the layer is timed; building
// statements, parsing answers and checking them happen outside.
type runner struct {
	e      *env
	d      *dataset
	traced bool
	inLoop bool // statements count as attempted and towards stmts_per_s
	record bool // latencies are kept (off during warm-up)

	lat  map[string]*[nLayers]samples // class → latencies (µs) per layer
	plan samples                      // executor PlanSelect (traced)

	loopUS    float64 // time inside Client.Exec of completed loop statements
	loopDone  int
	attempted int
	failed    int
	rotation  map[string]int

	// Traced run: pool deltas around the loop's server-boundary
	// statements, and log deltas around server-boundary writes after
	// the load.
	pool                            storage.PoolStats
	poolOps                         int
	walBytes, walSyncs              int64
	walRecords, walRows, walCommits int64

	problems []string
}

func newRunner(traced bool) *runner {
	return &runner{traced: traced, lat: make(map[string]*[nLayers]samples), rotation: make(map[string]int)}
}

// problem records a correctness failure; the first few are printed.
func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) samplesOf(class string) *[nLayers]samples {
	s := r.lat[class]
	if s == nil {
		s = new([nLayers]samples)
		r.lat[class] = s
	}
	return s
}

// layerFor picks the boundary for s: always the server in the untraced
// run; in the traced run each class rotates through the boundaries it
// has (maintenance is timed at the executor, deletes feed no per-layer
// metric).
func (r *runner) layerFor(s *stmt) layer {
	if !r.traced {
		return atServer
	}
	switch {
	case s.isMaintenance():
		return atExec
	case s.class == "delete":
		return atServer
	}
	n := 3
	if s.isRead() {
		n = 4
	}
	c := r.rotation[s.class]
	r.rotation[s.class]++
	return layer(c % n)
}

func short(sql string) string {
	if len(sql) > 90 {
		return sql[:90] + "..."
	}
	return sql
}

// do runs s at its layer, checks it, and applies it to the model.
func (r *runner) do(s *stmt) {
	at := r.layerFor(s)
	countPool := r.traced && at == atServer && r.inLoop
	countWAL := r.traced && at == atServer && s.isWrite() && s.class != "load"
	var pb storage.PoolStats
	var wb wal.Stats
	if countPool {
		pb = r.e.db.PoolStats()
	}
	if countWAL {
		wb = r.e.db.WAL().Stats()
	}
	out, us, err := r.exec(s, at)
	if countPool {
		pa := r.e.db.PoolStats()
		r.pool.Accesses += pa.Accesses - pb.Accesses
		r.pool.Hits += pa.Hits - pb.Hits
		r.pool.Misses += pa.Misses - pb.Misses
		r.pool.Evictions += pa.Evictions - pb.Evictions
		r.pool.DirtyWrites += pa.DirtyWrites - pb.DirtyWrites
		r.poolOps++
	}
	if countWAL && err == nil {
		wa := r.e.db.WAL().Stats()
		r.walBytes += wa.AppendedBytes - wb.AppendedBytes
		r.walSyncs += wa.Syncs - wb.Syncs
		r.walRecords += wa.Appends - wb.Appends
		r.walRows += int64(out.affected)
		r.walCommits++
	}
	if r.inLoop {
		r.attempted++
	}
	if err != nil {
		if r.inLoop {
			r.failed++
		}
		r.problem("%s failed: %v", short(s.sql), err)
		return
	}
	if r.record {
		r.samplesOf(s.class)[at] = append(r.samplesOf(s.class)[at], us)
	}
	if at == atServer && r.inLoop {
		r.loopUS += us
		r.loopDone++
	}
	r.check(s, at, out)
	if s.apply != nil {
		s.apply()
	}
}

// exec issues s at one boundary and returns its outcome and the time
// spent inside the call, in microseconds.
func (r *runner) exec(s *stmt, at layer) (outcome, float64, error) {
	switch at {
	case atServer:
		t0 := time.Now()
		resp, err := r.e.cli.Exec(s.sql)
		us := micros(t0)
		if err != nil {
			return outcome{}, us, err
		}
		out, err := fromResponse(s, resp)
		return out, us, err
	case atSQL:
		t0 := time.Now()
		res, err := r.e.sess.Exec(s.sql)
		us := micros(t0)
		if err != nil {
			return outcome{}, us, err
		}
		return fromResult(s, res), us, nil
	case atExec:
		return r.execTable(s)
	default:
		return r.execAM(s)
	}
}

func micros(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

func (r *runner) execTable(s *stmt) (outcome, float64, error) {
	var out outcome
	if s.class == "checkpoint" {
		t0 := time.Now()
		err := r.e.db.Checkpoint()
		return out, micros(t0), err
	}
	if s.class == "vacuum" {
		t0 := time.Now()
		_, err := r.e.db.Vacuum(s.table)
		return out, micros(t0), err
	}
	t, err := r.e.db.Table(s.table)
	if err != nil {
		return out, 0, err
	}
	var us float64
	switch {
	case s.wantD != nil:
		t0 := time.Now()
		nns, _, err := t.SelectNN("p", s.nnArg, nnK)
		us = micros(t0)
		if err != nil {
			return out, us, err
		}
		for _, nn := range nns {
			out.add(nn.Tuple)
		}
	case s.isRead():
		t0 := time.Now()
		if _, err := t.PlanSelect(s.pred); err != nil {
			return out, 0, err
		}
		r.plan = append(r.plan, micros(t0))
		var rows []catalog.Tuple
		t0 = time.Now()
		_, err := t.Select(s.pred, func(row executor.Row) bool {
			rows = append(rows, row.Tuple)
			return true
		})
		us = micros(t0)
		if err != nil {
			return out, us, err
		}
		for _, tup := range rows {
			out.add(tup)
		}
	case s.class == "insert":
		t0 := time.Now()
		_, err = t.Insert(s.rows[0])
		us, out.affected = micros(t0), 1
	case s.rows != nil:
		t0 := time.Now()
		_, err = t.InsertBatch(s.rows)
		us, out.affected = micros(t0), len(s.rows)
	case s.sets != nil:
		t0 := time.Now()
		out.affected, err = t.UpdateWhere(s.pred, s.sets)
		us = micros(t0)
	default:
		t0 := time.Now()
		out.affected, err = t.DeleteWhere(s.pred)
		us = micros(t0)
	}
	return out, us, err
}

// execAM drives the table's index directly. Index answers are
// candidate row ids; they are fetched and rechecked against the
// oracle's own predicate afterwards, untimed, as the executor would.
func (r *runner) execAM(s *stmt) (outcome, float64, error) {
	var out outcome
	t, err := r.e.db.Table(s.table)
	if err != nil {
		return out, 0, err
	}
	idx := t.Indexes[0].Idx
	var rids []heap.RID
	var us float64
	if s.wantD != nil {
		t0 := time.Now()
		it, err := idx.NNScan(s.nnArg)
		if err != nil {
			return out, micros(t0), err
		}
		for len(rids) < nnK {
			rid, _, ok := it()
			if !ok {
				break
			}
			rids = append(rids, rid)
		}
		us = micros(t0)
	} else {
		t0 := time.Now()
		err := idx.Scan(s.pred.Op, s.pred.Arg, func(rid heap.RID) bool {
			rids = append(rids, rid)
			return true
		})
		us = micros(t0)
		if err != nil {
			return out, us, err
		}
	}
	for _, rid := range rids {
		tup, err := t.Get(rid)
		if err != nil {
			return out, us, err
		}
		if tup != nil && (s.wantD != nil || satisfies(s.pred, tup[0])) {
			out.add(tup)
		}
	}
	return out, us, nil
}

// satisfies is the oracle's recheck of an index candidate.
func satisfies(p *executor.Pred, key catalog.Datum) bool {
	switch p.Op {
	case "=":
		return key.S == p.Arg.S
	case "#=":
		return strings.HasPrefix(key.S, p.Arg.S)
	case "?=":
		return matchPattern(key.S, p.Arg.S)
	case "@":
		return key.P.X == p.Arg.P.X && key.P.Y == p.Arg.P.Y
	case "^":
		b := p.Arg.B
		return key.P.X >= b.Min.X && key.P.X <= b.Max.X && key.P.Y >= b.Min.Y && key.P.Y <= b.Max.Y
	}
	return false
}

func (o *outcome) add(tup catalog.Tuple) {
	o.ids = append(o.ids, tup[1].I)
	if tup[0].Typ == catalog.Point {
		o.pts = append(o.pts, tup[0].P)
	}
}

func fromResult(s *stmt, res *sqlmini.Result) outcome {
	var out outcome
	for _, tup := range res.Rows {
		out.add(tup)
	}
	out.affected = res.Affected
	return out
}

func fromResponse(s *stmt, resp *server.Response) (outcome, error) {
	var out outcome
	for _, row := range resp.Rows {
		if len(row) < 2 {
			return out, fmt.Errorf("short row %q", row)
		}
		id, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			return out, fmt.Errorf("bad id in row %q", row)
		}
		out.ids = append(out.ids, id)
		if s.wantD != nil {
			p, err := parsePoint(row[0])
			if err != nil {
				return out, err
			}
			out.pts = append(out.pts, p)
		}
	}
	if !s.isRead() && !s.isMaintenance() {
		f := strings.Fields(resp.OK)
		n, err := strconv.Atoi(f[len(f)-1])
		if err != nil {
			return out, fmt.Errorf("bad row count in %q", resp.OK)
		}
		out.affected = n
	}
	return out, nil
}

// check compares an outcome with the oracle.
func (r *runner) check(s *stmt, at layer, out outcome) {
	switch {
	case s.wantD != nil:
		pm := r.d.points
		got := make([]float64, len(out.pts))
		for i, p := range out.pts {
			got[i] = dist(p, s.nnArg.P)
			if mp, ok := pm.get(out.ids[i]); !ok || mp != p {
				r.problem("%s at layer %d: row %d is not in the model", short(s.sql), at, out.ids[i])
				return
			}
		}
		want := s.wantD
		if at == atAM && len(got) < len(want) {
			// The index also yields dead versions, which the fetch
			// drops; the live ones left are still the nearest, in order.
			want = want[:len(got)]
		}
		if !slices.Equal(got, want) {
			r.problem("%s at layer %d: distances %v, want %v", short(s.sql), at, got, want)
		}
	case s.isRead():
		if got := sortIDs(out.ids); !slices.Equal(got, s.want) {
			r.problem("%s at layer %d: ids %v, want %v", short(s.sql), at, got, s.want)
		}
	case s.isMaintenance():
	default:
		if out.affected != s.affected {
			r.problem("%s at layer %d: %d rows, want %d", short(s.sql), at, out.affected, s.affected)
		}
	}
}
