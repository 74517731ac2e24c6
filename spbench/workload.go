package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
)

// workload is one closed-loop traffic mix over one connection.
type workload struct {
	name      string
	poolPages int  // buffer pool pages per file after the reopen; 0 keeps the default (1024)
	durable   bool // the write mix instead of the read mix
}

var workloads = []workload{
	{name: "warm_read"},
	{name: "cold_read", poolPages: 48},
	{name: "durable_write", durable: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setups         = 3   // set-ups per untraced run; setup_s is their median
	superRounds    = 20  // durable_write rounds between VACUUM and CHECKPOINT
	crashCycles    = 5   // segments per run, each ending in a crash; recovery_s is the median
	crashRounds    = 200 // write rounds per segment
	durableWarmups = 40  // durable_write rounds run as warm-up
	allocCalls     = 200
	pageProbes     = 200
	twinProbes     = 1000
)

var readClasses = []string{"exact", "prefix", "pattern", "point", "range", "nn"}

// bench is one run of one workload.
type bench struct {
	w    workload
	seed int64
	d    *dataset
	r    *runner
	dir  string
	pool map[string][]*stmt // read workloads: probes with their answers

	setupS    []float64
	recoveryS []float64
	loopStmts int
	loopPool  [2]int64 // pool accesses and misses over the timed loop
}

func newBench(w workload, seed int64, traced bool, dir string) *bench {
	b := &bench{w: w, seed: seed, dir: dir, r: newRunner(traced)}
	b.fresh()
	return b
}

// fresh regenerates the run's data and probes from the seed, so every
// set-up starts from the same rows.
func (b *bench) fresh() {
	b.d = genData(b.seed)
	b.r.d = b.d
	b.answerProbes()
}

// answerProbes fixes each read probe's answer from the model, on the
// read workloads, whose data changes only between timed blocks.
func (b *bench) answerProbes() {
	if b.w.durable {
		return
	}
	b.pool = make(map[string][]*stmt)
	for _, c := range readClasses {
		for i := 0; i < probes; i++ {
			b.pool[c] = append(b.pool[c], b.probeAt(c, i))
		}
	}
}

// probeAt builds the i-th probe of a read class with the model's answer.
func (b *bench) probeAt(class string, i int) *stmt {
	d := b.d
	switch class {
	case "exact":
		return readWord("exact", "=", d.exact[i], d.words.exact(d.exact[i]))
	case "prefix":
		return readWord("prefix", "#=", d.prefix[i], d.words.prefix(d.prefix[i]))
	case "pattern":
		return readWord("pattern", "?=", d.pattern[i], d.words.pattern(d.pattern[i]))
	case "point":
		return readPoint(d.point[i], d.points.exact(d.point[i]))
	case "range":
		return readRange(d.box[i], d.points.inBox(d.box[i]))
	default:
		return readNN(d.nnq[i], d.points.nearest(d.nnq[i], nnK))
	}
}

// probe returns a read of the class: from the fixed probe set on the
// read workloads, built from the live model on durable_write.
func (b *bench) probe(class string) *stmt {
	if b.pool != nil {
		return b.pool[class][b.d.rng.Intn(probes)]
	}
	d := b.d
	switch class {
	case "exact":
		w := d.victimWord()
		return readWord("exact", "=", w, d.words.exact(w))
	case "prefix":
		w := d.victimWord()
		return readWord("prefix", "#=", w[:prefixLen], d.words.prefix(w[:prefixLen]))
	case "pattern":
		var w string
		for len(w) < 4 {
			w = d.victimWord()
		}
		p := datagen.Patterns([]string{w}, 1, 0, d.rng.Int63())[0]
		return readWord("pattern", "?=", p, d.words.pattern(p))
	case "point":
		p := d.victimPoint()
		return readPoint(p, d.points.exact(p))
	case "range":
		bx := datagen.Boxes(1, d.rng.Int63(), world, boxSide)[0]
		return readRange(bx, d.points.inBox(bx))
	default:
		q := datagen.Points(1, d.rng.Int63(), world)[0]
		return readNN(q, d.points.nearest(q, nnK))
	}
}

func (b *bench) opts() executor.Options {
	return executor.Options{Dir: b.dir, WAL: true, PoolPages: b.w.poolPages}
}

// exec runs set-up statements that are not measured.
func (b *bench) exec(sqls ...string) error {
	for _, q := range sqls {
		if _, err := b.r.e.cli.Exec(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// setup creates and loads the database, analyzes and checkpoints it,
// reopens it with the workload's pool size and warms it up. The load is
// 100-row INSERTs through the server, recorded as class "load".
func (b *bench) setup() error {
	if err := os.RemoveAll(b.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	e, err := openEnv(executor.Options{Dir: b.dir, WAL: true})
	if err != nil {
		return err
	}
	b.r.e = e
	ddl := []string{
		"CREATE TABLE words (w TEXT, id INT)",
		"CREATE INDEX words_w ON words USING spgist (w)",
		"CREATE TABLE pts (p POINT, id INT)",
		"CREATE INDEX pts_p ON pts USING spgist (p)",
	}
	if err := b.exec(ddl...); err != nil {
		return err
	}
	b.r.record = true
	for _, s := range b.loadStmts() {
		b.r.do(s)
	}
	if err := b.exec("ANALYZE", "CHECKPOINT"); err != nil {
		return err
	}
	if err := e.close(); err != nil {
		return err
	}
	if b.r.e, err = openEnv(b.opts()); err != nil {
		return err
	}
	b.warmup()
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	return nil
}

// loadStmts are the 100-row INSERTs that fill every table in id order,
// the tables interleaved.
func (b *bench) loadStmts() []*stmt {
	d := b.d
	var lists [][]*stmt
	add := func(table string, n int, tuple func(id int64) catalog.Tuple) {
		var list []*stmt
		for lo := 1; lo <= n; lo += batchRows {
			var tups []catalog.Tuple
			for id := lo; id < lo+batchRows && id <= n; id++ {
				tups = append(tups, tuple(int64(id)))
			}
			list = append(list, insertStmt("load", table, tups))
		}
		lists = append(lists, list)
	}
	add("words", nWords, func(id int64) catalog.Tuple { return wordTuple(d.words.byID[id], id) })
	add("pts", nPoints, func(id int64) catalog.Tuple {
		p, _ := d.points.get(id)
		return pointTuple(p, id)
	})
	var out []*stmt
	for i := range lists[0] {
		for _, l := range lists {
			out = append(out, l[i])
		}
	}
	return out
}

// warmup runs the workload's own statements before timing: every probe
// once on the read workloads (so warm_read's loop finds every page it
// touches in the pool), a few rounds on durable_write.
func (b *bench) warmup() {
	b.r.record = false
	if b.w.durable {
		for i := 0; i < durableWarmups; i++ {
			for _, f := range b.durableRound() {
				b.r.do(f())
			}
		}
		return
	}
	for _, c := range readClasses {
		for _, s := range b.pool[c] {
			b.r.do(s)
		}
	}
}

// readRound is two reads of each class in seeded order.
func (b *bench) readRound() []*stmt {
	var out []*stmt
	for _, c := range readClasses {
		out = append(out, b.probe(c), b.probe(c))
	}
	b.d.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// durableRound is one round of durable_write: groups of statements in
// seeded order, each read built when it runs so it sees the writes
// before it. Rows stay near their loaded count: a word INSERT is
// matched by a word DELETE, a point INSERT by a point DELETE, and a
// 100-row INSERT by a box DELETE sized to remove as many.
func (b *bench) durableRound() []func() *stmt {
	d := b.d
	var w, nw string
	var p, np catalog.Datum
	groups := [][]func() *stmt{
		{
			func() *stmt { s := d.insertWord(); w = s.rows[0][0].S; return s },
			func() *stmt { return readWord("exact", "=", w, d.words.exact(w)) },
		},
		{
			func() *stmt { s := d.insertPoint(); p = s.rows[0][0]; return s },
			func() *stmt { return readPoint(p.P, d.points.exact(p.P)) },
		},
		{
			func() *stmt { s := d.updateWord(); nw = s.sets[0].Value.S; return s },
			func() *stmt { return readWord("exact", "=", nw, d.words.exact(nw)) },
		},
		{
			func() *stmt { s := d.updatePoint(); np = s.sets[0].Value; return s },
			func() *stmt { return readPoint(np.P, d.points.exact(np.P)) },
		},
		{d.deleteWord},
		{d.deletePoint},
		{d.batchPoints, d.deleteBox},
		{func() *stmt { return b.probe("prefix") }},
		{func() *stmt { return b.probe("pattern") }},
		{func() *stmt { return b.probe("range") }},
		{func() *stmt { return b.probe("nn") }},
	}
	d.rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var out []func() *stmt
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// measure runs the timed part of a run as crashCycles segments, so
// that the write and recovery samples are spread over the run as the
// loop's are. Each segment is a timed block of the workload's rounds
// (seconds/crashCycles long), then VACUUM of both tables and a
// CHECKPOINT, a block of crashRounds single-row write rounds, a crash,
// a timed recovering open, and a comparison of every table with the
// model. Before the next block the probes' answers are refreshed and
// the workload warmed up again.
func (b *bench) measure(seconds int) error {
	block := time.Duration(seconds) * time.Second / crashCycles
	for c := 0; c < crashCycles; c++ {
		if c > 0 {
			b.answerProbes()
			b.warmup()
		}
		b.loop(block)
		if err := b.crashCycle(); err != nil {
			return err
		}
	}
	switch {
	case b.w.name == "warm_read" && b.loopPool[1] != 0:
		b.r.problem("warm_read: the timed loop took %d buffer misses, want 0", b.loopPool[1])
	case b.w.name == "cold_read" && b.loopPool[1] <= int64(b.loopStmts):
		b.r.problem("cold_read: the timed loop took %d buffer misses over %d statements, want more than one each",
			b.loopPool[1], b.loopStmts)
	}
	return nil
}

// loop runs whole rounds until the block's time is up: durable_write's
// unit is superRounds rounds closed by VACUUM of both tables and a
// CHECKPOINT.
func (b *bench) loop(d time.Duration) {
	r := b.r
	r.record, r.inLoop = true, true
	before, attempted := r.e.db.PoolStats(), r.attempted
	runtime.GC()
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		if !b.w.durable {
			for _, s := range b.readRound() {
				r.do(s)
			}
			continue
		}
		for i := 0; i < superRounds; i++ {
			for _, f := range b.durableRound() {
				r.do(f())
			}
		}
		for _, s := range []*stmt{vacuumStmt("words"), vacuumStmt("pts"), checkpointStmt()} {
			r.do(s)
		}
	}
	r.inLoop = false
	after := r.e.db.PoolStats()
	b.loopStmts += r.attempted - attempted
	b.loopPool[0] += after.Accesses - before.Accesses
	b.loopPool[1] += after.Misses - before.Misses
}

// crashCycle checkpoints, runs crashRounds rounds of single-row writes
// (an INSERT and a key-moving UPDATE per table, in seeded order),
// crashes the database, times the recovering open and compares every
// table with the model of acknowledged writes.
func (b *bench) crashCycle() error {
	r, d := b.r, b.d
	r.record = true
	for _, s := range []*stmt{vacuumStmt("words"), vacuumStmt("pts"), checkpointStmt()} {
		r.do(s)
	}
	for i := 0; i < crashRounds; i++ {
		round := []func() *stmt{d.insertWord, d.updateWord, d.insertPoint, d.updatePoint}
		d.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, f := range round {
			r.do(f())
		}
	}
	if err := r.e.crash(); err != nil {
		return err
	}
	t0 := time.Now()
	e, err := openEnv(b.opts())
	if err != nil {
		return err
	}
	b.recoveryS = append(b.recoveryS, time.Since(t0).Seconds())
	r.e = e
	return b.verifyTables()
}

// verifyTables reads every table back through the server and compares
// it with the model: every acknowledged write is present, no deleted
// row is back.
func (b *bench) verifyTables() error {
	check := func(table string, want map[int64]string) error {
		resp, err := b.r.e.cli.Exec("SELECT * FROM " + table)
		if err != nil {
			return err
		}
		seen := make(map[int64]bool, len(resp.Rows))
		for _, row := range resp.Rows {
			var id int64
			if _, err := fmt.Sscan(row[1], &id); err != nil {
				return fmt.Errorf("%s: bad row %q", table, row)
			}
			if w, ok := want[id]; !ok || w != row[0] || seen[id] {
				b.r.problem("%s after recovery: unexpected row %q", table, row)
				return nil
			}
			seen[id] = true
		}
		if len(seen) != len(want) {
			b.r.problem("%s after recovery: %d rows, want %d", table, len(seen), len(want))
		}
		return nil
	}
	pointsWant := func(m *pointModel) map[int64]string {
		out := make(map[int64]string, m.len())
		for _, r := range m.rows {
			out[r.id] = strings.Trim(pointLit(r.p), "'")
		}
		return out
	}
	if err := check("words", b.d.words.byID); err != nil {
		return err
	}
	return check("pts", pointsWant(b.d.points))
}

// liveRows counts the rows the model holds.
func (b *bench) liveRows() int {
	return b.d.words.len() + b.d.points.len()
}

// dirBytes sums the sizes of every file under the database directory,
// the write-ahead log included.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
