package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/geom"
)

// Data shape. Rows follow the paper's distributions (internal/datagen):
// words of 1–15 letters from 'a'..'z', points uniform in [0,100]².
const (
	nWords    = 20000 // rows of the words table
	nPoints   = 20000 // rows of the pts table
	probes    = 256   // distinct probes per read class
	prefixLen = 3     // prefix search: fixed-length prefixes of stored words
	boxSide   = 2.0   // range search: fixed-side boxes (about 8 rows each)
	nnK       = 10    // nearest-neighbour search: LIMIT 10
	batchRows = 100   // rows per multi-row INSERT
)

var world = geom.MakeBox(0, 0, 100, 100)

// dataset is everything a run generates from its seed.
type dataset struct {
	words  *wordModel
	points *pointModel

	// Read probes, each with its answer fixed when the data is static.
	exact, prefix, pattern []string
	point, nnq             []geom.Point
	box                    []geom.Box

	// Fresh rows for writes, consumed in order and drawn in chunks.
	newWords  []string
	newPoints []geom.Point
	freshSeed int64
	wordID    int64 // last id handed out in words
	pointID   int64 // last id handed out in pts

	rng *rand.Rand // interleaving and victim choice
}

func genData(seed int64) *dataset {
	d := &dataset{
		words:  newWordModel(),
		points: newPointModel(),
		rng:    rand.New(rand.NewSource(seed)),
	}
	words := datagen.Words(nWords, seed)
	for i, w := range words {
		d.words.add(int64(i+1), w)
	}
	for i, p := range datagen.Points(nPoints, seed+1, world) {
		d.points.add(int64(i+1), p)
	}
	d.wordID, d.pointID = nWords, nPoints

	// Probes come from stored words long enough that each returns a
	// bounded handful of rows (a one-letter word repeats ~50 times).
	var long3, long4 []string
	for _, w := range words {
		if len(w) >= 3 {
			long3 = append(long3, w)
		}
		if len(w) >= 4 {
			long4 = append(long4, w)
		}
	}
	d.exact = datagen.Sample(long3, probes, seed+2)
	for _, w := range datagen.Sample(long3, probes, seed+3) {
		d.prefix = append(d.prefix, w[:prefixLen])
	}
	d.pattern = datagen.Patterns(long4, probes, 0, seed+4)
	d.point = datagen.Sample(datagen.Points(nPoints, seed+1, world), probes, seed+5)
	d.box = datagen.Boxes(probes, seed+6, world, boxSide)
	d.nnq = datagen.Points(probes, seed+7, world)

	d.freshSeed = seed + 8
	return d
}

const freshChunk = 1 << 14

func (d *dataset) freshWord() string {
	if len(d.newWords) == 0 {
		d.freshSeed++
		d.newWords = datagen.Words(freshChunk, d.freshSeed)
	}
	w := d.newWords[0]
	d.newWords = d.newWords[1:]
	return w
}

func (d *dataset) freshPoint() geom.Point {
	if len(d.newPoints) == 0 {
		d.freshSeed++
		d.newPoints = datagen.Points(freshChunk, d.freshSeed, world)
	}
	p := d.newPoints[0]
	d.newPoints = d.newPoints[1:]
	return p
}

// victimWord picks a stored row whose word has at least three letters,
// so a statement keyed on it touches a bounded number of rows.
func (d *dataset) victimWord() string {
	for {
		r := d.words.sorted[d.rng.Intn(d.words.len())]
		if len(r.w) >= 3 {
			return r.w
		}
	}
}

func (d *dataset) victimPoint() geom.Point {
	return d.points.rows[d.rng.Intn(d.points.len())].p
}

// SQL literal forms. Coordinates print with 'g' and full precision, so
// a point round-trips exactly through the parser.
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func pointLit(p geom.Point) string {
	return "'(" + fmtFloat(p.X) + "," + fmtFloat(p.Y) + ")'"
}

func boxLit(b geom.Box) string {
	return "'(" + fmtFloat(b.Min.X) + "," + fmtFloat(b.Min.Y) + "," +
		fmtFloat(b.Max.X) + "," + fmtFloat(b.Max.Y) + ")'"
}

func parsePoint(s string) (geom.Point, error) {
	var p geom.Point
	parts := strings.Split(strings.Trim(s, "()"), ",")
	if len(parts) != 2 {
		return p, fmt.Errorf("bad point %q", s)
	}
	var err error
	if p.X, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return p, err
	}
	p.Y, err = strconv.ParseFloat(parts[1], 64)
	return p, err
}

// Statement builders. Each carries the SQL text for the client and
// session boundaries, the executor and access-method forms of the same
// operation, and the oracle's expectation.

func wordPred(op, w string) *executor.Pred {
	return &executor.Pred{Column: 0, Op: op, Arg: catalog.NewText(w)}
}

func readWord(class, op, w string, want []int64) *stmt {
	return &stmt{
		class: class, table: "words", pred: wordPred(op, w), want: want,
		sql: fmt.Sprintf("SELECT * FROM words WHERE w %s '%s'", op, w),
	}
}

func readPoint(p geom.Point, want []int64) *stmt {
	return &stmt{
		class: "point", table: "pts", want: want,
		pred: &executor.Pred{Column: 0, Op: "@", Arg: catalog.NewPoint(p)},
		sql:  fmt.Sprintf("SELECT * FROM pts WHERE p @ %s", pointLit(p)),
	}
}

func readRange(b geom.Box, want []int64) *stmt {
	return &stmt{
		class: "range", table: "pts", want: want,
		pred: &executor.Pred{Column: 0, Op: "^", Arg: catalog.NewBox(b)},
		sql:  fmt.Sprintf("SELECT * FROM pts WHERE p ^ %s", boxLit(b)),
	}
}

func readNN(q geom.Point, want []float64) *stmt {
	return &stmt{
		class: "nn", table: "pts", nnArg: catalog.NewPoint(q), wantD: want,
		sql: fmt.Sprintf("SELECT * FROM pts ORDER BY p <-> %s LIMIT %d", pointLit(q), nnK),
	}
}

func wordTuple(w string, id int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewText(w), catalog.NewInt(id)}
}

func pointTuple(p geom.Point, id int64) catalog.Tuple {
	return catalog.Tuple{catalog.NewPoint(p), catalog.NewInt(id)}
}

// insertStmt builds a (multi-row) INSERT of tups into table.
func insertStmt(class, table string, tups []catalog.Tuple) *stmt {
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
	for i, t := range tups {
		if i > 0 {
			sb.WriteString(", ")
		}
		if t[0].Typ == catalog.Point {
			fmt.Fprintf(&sb, "(%s, %d)", pointLit(t[0].P), t[1].I)
		} else {
			fmt.Fprintf(&sb, "('%s', %d)", t[0].S, t[1].I)
		}
	}
	return &stmt{class: class, table: table, rows: tups, affected: len(tups), sql: sb.String()}
}

// insertWord inserts one fresh word and records it once acknowledged.
func (d *dataset) insertWord() *stmt {
	d.wordID++
	id, w := d.wordID, d.freshWord()
	s := insertStmt("insert", "words", []catalog.Tuple{wordTuple(w, id)})
	s.apply = func() { d.words.add(id, w) }
	return s
}

func (d *dataset) insertPoint() *stmt {
	d.pointID++
	id, p := d.pointID, d.freshPoint()
	s := insertStmt("insert", "pts", []catalog.Tuple{pointTuple(p, id)})
	s.apply = func() { d.points.add(id, p) }
	return s
}

// batchPoints inserts batchRows fresh points as one statement.
func (d *dataset) batchPoints() *stmt {
	tups := make([]catalog.Tuple, batchRows)
	for i := range tups {
		d.pointID++
		tups[i] = pointTuple(d.freshPoint(), d.pointID)
	}
	s := insertStmt("batch", "pts", tups)
	s.apply = func() {
		for _, t := range tups {
			d.points.add(t[1].I, t[0].P)
		}
	}
	return s
}

// updateWord moves every row holding a victim word to a fresh word.
func (d *dataset) updateWord() *stmt {
	old := d.victimWord()
	nw := d.freshWord()
	ids := d.words.exact(old)
	return &stmt{
		class: "update", table: "words", pred: wordPred("=", old), affected: len(ids),
		sets: []executor.ColUpdate{{Column: 0, Value: catalog.NewText(nw)}},
		sql:  fmt.Sprintf("UPDATE words SET w = '%s' WHERE w = '%s'", nw, old),
		apply: func() {
			for _, id := range ids {
				d.words.remove(id)
				d.words.add(id, nw)
			}
		},
	}
}

// updatePoint moves one stored point to a fresh position.
func (d *dataset) updatePoint() *stmt {
	old := d.victimPoint()
	np := d.freshPoint()
	ids := d.points.exact(old)
	return &stmt{
		class: "update", table: "pts", affected: len(ids),
		pred: &executor.Pred{Column: 0, Op: "@", Arg: catalog.NewPoint(old)},
		sets: []executor.ColUpdate{{Column: 0, Value: catalog.NewPoint(np)}},
		sql:  fmt.Sprintf("UPDATE pts SET p = %s WHERE p @ %s", pointLit(np), pointLit(old)),
		apply: func() {
			for _, id := range ids {
				d.points.remove(id)
				d.points.add(id, np)
			}
		},
	}
}

func (d *dataset) deleteWord() *stmt {
	w := d.victimWord()
	ids := d.words.exact(w)
	return &stmt{
		class: "delete", table: "words", pred: wordPred("=", w), affected: len(ids),
		sql: fmt.Sprintf("DELETE FROM words WHERE w = '%s'", w),
		apply: func() {
			for _, id := range ids {
				d.words.remove(id)
			}
		},
	}
}

func (d *dataset) deletePoint() *stmt {
	p := d.victimPoint()
	ids := d.points.exact(p)
	return &stmt{
		class: "delete", table: "pts", affected: len(ids),
		pred: &executor.Pred{Column: 0, Op: "@", Arg: catalog.NewPoint(p)},
		sql:  fmt.Sprintf("DELETE FROM pts WHERE p @ %s", pointLit(p)),
		apply: func() {
			for _, id := range ids {
				d.points.remove(id)
			}
		},
	}
}

// deleteBox deletes the points inside a random box sized so that it
// removes, on average, one batch of rows plus the table's excess over
// its loaded size: the table stays near nPoints however long the run.
func (d *dataset) deleteBox() *stmt {
	n := float64(d.points.len())
	want := float64(batchRows) + n - nPoints
	if want < 1 {
		want = 1
	}
	side := 100 * math.Sqrt(want/n)
	if side > 100 {
		side = 100
	}
	b := datagen.Boxes(1, d.rng.Int63(), world, side)[0]
	ids := d.points.inBox(b)
	return &stmt{
		class: "delete", table: "pts", affected: len(ids),
		pred: &executor.Pred{Column: 0, Op: "^", Arg: catalog.NewBox(b)},
		sql:  fmt.Sprintf("DELETE FROM pts WHERE p ^ %s", boxLit(b)),
		apply: func() {
			for _, id := range ids {
				d.points.remove(id)
			}
		},
	}
}
