package main

import (
	"container/heap"
	"math"
	"sort"
	"strings"

	"repro/internal/geom"
)

// The oracle is the benchmark's own model of the rows it generated and
// acknowledged. Every answer the database gives is compared with it, and
// nothing in it calls into the program under test: exact and prefix
// answers come from a sorted word list, wildcards from matchPattern
// below, and point, range and nearest-neighbour answers from brute force.

// wordRow is one row of the words table.
type wordRow struct {
	w  string
	id int64
}

// wordModel holds the words table as a list sorted by (word, id), so
// exact and prefix answers are binary searches.
type wordModel struct {
	sorted []wordRow
	byID   map[int64]string
}

func newWordModel() *wordModel { return &wordModel{byID: make(map[int64]string)} }

func (m *wordModel) len() int { return len(m.sorted) }

// search returns the first position whose row is not below (w, id).
func (m *wordModel) search(w string, id int64) int {
	return sort.Search(len(m.sorted), func(i int) bool {
		r := m.sorted[i]
		return r.w > w || (r.w == w && r.id >= id)
	})
}

func (m *wordModel) add(id int64, w string) {
	i := m.search(w, id)
	m.sorted = append(m.sorted, wordRow{})
	copy(m.sorted[i+1:], m.sorted[i:])
	m.sorted[i] = wordRow{w: w, id: id}
	m.byID[id] = w
}

func (m *wordModel) remove(id int64) {
	w, ok := m.byID[id]
	if !ok {
		return
	}
	i := m.search(w, id)
	m.sorted = append(m.sorted[:i], m.sorted[i+1:]...)
	delete(m.byID, id)
}

// exact returns the ids of the rows holding w, ascending.
func (m *wordModel) exact(w string) []int64 {
	var ids []int64
	for i := m.search(w, math.MinInt64); i < len(m.sorted) && m.sorted[i].w == w; i++ {
		ids = append(ids, m.sorted[i].id)
	}
	return sortIDs(ids)
}

// prefix returns the ids of the rows whose word starts with p.
func (m *wordModel) prefix(p string) []int64 {
	var ids []int64
	for i := m.search(p, math.MinInt64); i < len(m.sorted) && strings.HasPrefix(m.sorted[i].w, p); i++ {
		ids = append(ids, m.sorted[i].id)
	}
	return sortIDs(ids)
}

// pattern returns the ids of the rows whose word matches pat.
func (m *wordModel) pattern(pat string) []int64 {
	var ids []int64
	for _, r := range m.sorted {
		if matchPattern(r.w, pat) {
			ids = append(ids, r.id)
		}
	}
	return sortIDs(ids)
}

// matchPattern reports whether word matches pat, where '?' stands for
// exactly one letter (the paper's wildcard search).
func matchPattern(word, pat string) bool {
	if len(word) != len(pat) {
		return false
	}
	for i := range pat {
		if pat[i] != '?' && pat[i] != word[i] {
			return false
		}
	}
	return true
}

// pointRow is one row of a point table.
type pointRow struct {
	p  geom.Point
	id int64
}

// pointModel holds a point table; every answer is a brute-force pass.
type pointModel struct {
	rows []pointRow
	pos  map[int64]int
}

func newPointModel() *pointModel { return &pointModel{pos: make(map[int64]int)} }

func (m *pointModel) len() int { return len(m.rows) }

func (m *pointModel) add(id int64, p geom.Point) {
	m.pos[id] = len(m.rows)
	m.rows = append(m.rows, pointRow{p: p, id: id})
}

func (m *pointModel) remove(id int64) {
	i, ok := m.pos[id]
	if !ok {
		return
	}
	last := len(m.rows) - 1
	m.rows[i] = m.rows[last]
	m.pos[m.rows[i].id] = i
	m.rows = m.rows[:last]
	delete(m.pos, id)
}

func (m *pointModel) get(id int64) (geom.Point, bool) {
	i, ok := m.pos[id]
	if !ok {
		return geom.Point{}, false
	}
	return m.rows[i].p, true
}

// exact returns the ids of the rows at exactly p.
func (m *pointModel) exact(p geom.Point) []int64 {
	var ids []int64
	for _, r := range m.rows {
		if r.p.X == p.X && r.p.Y == p.Y {
			ids = append(ids, r.id)
		}
	}
	return sortIDs(ids)
}

// inBox returns the ids of the rows inside b, borders included.
func (m *pointModel) inBox(b geom.Box) []int64 {
	var ids []int64
	for _, r := range m.rows {
		if r.p.X >= b.Min.X && r.p.X <= b.Max.X && r.p.Y >= b.Min.Y && r.p.Y <= b.Max.Y {
			ids = append(ids, r.id)
		}
	}
	return sortIDs(ids)
}

// nearest returns the k smallest distances from q, ascending. Answers
// are compared as distances, not ids, because equidistant rows may come
// back in either order.
func (m *pointModel) nearest(q geom.Point, k int) []float64 {
	h := make(maxHeap, 0, k+1)
	for _, r := range m.rows {
		d := dist(r.p, q)
		if len(h) < k {
			heap.Push(&h, d)
		} else if d < h[0] {
			h[0] = d
			heap.Fix(&h, 0)
		}
	}
	out := append([]float64(nil), h...)
	sort.Float64s(out)
	return out
}

// dist is the Euclidean distance, computed here rather than borrowed
// from the program's geometry package.
func dist(a, b geom.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

type maxHeap []float64

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func sortIDs(ids []int64) []int64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
