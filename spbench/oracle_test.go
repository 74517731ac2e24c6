package main

import (
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/geom"
)

func TestWordModelAnswers(t *testing.T) {
	m := newWordModel()
	for id, w := range map[int64]string{1: "cat", 2: "car", 3: "cart", 4: "dog", 5: "cat", 6: "ca", 7: "cut"} {
		m.add(id, w)
	}
	cases := []struct {
		name string
		got  []int64
		want []int64
	}{
		{"exact cat", m.exact("cat"), []int64{1, 5}},
		{"exact absent", m.exact("cow"), nil},
		{"prefix ca", m.prefix("ca"), []int64{1, 2, 3, 5, 6}},
		{"prefix car", m.prefix("car"), []int64{2, 3}},
		{"prefix empty", m.prefix("z"), nil},
		{"pattern c?t", m.pattern("c?t"), []int64{1, 5, 7}},
		{"pattern ?a??", m.pattern("?a??"), []int64{3}},
		{"pattern ???", m.pattern("???"), []int64{1, 2, 4, 5, 7}},
	}
	for _, c := range cases {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	m.remove(5)
	m.remove(99) // absent: no effect
	if got := m.exact("cat"); !slices.Equal(got, []int64{1}) {
		t.Errorf("after remove: exact cat = %v, want [1]", got)
	}
	if m.len() != 6 || m.byID[5] != "" {
		t.Errorf("after remove: len %d, byID[5] %q", m.len(), m.byID[5])
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		word, pat string
		want      bool
	}{
		{"abc", "abc", true},
		{"abc", "a?c", true},
		{"abc", "???", true},
		{"abc", "ab", false},   // '?' is exactly one letter,
		{"abc", "abc?", false}, // so lengths must agree
		{"abc", "b?c", false},
		{"", "", true},
	}
	for _, c := range cases {
		if got := matchPattern(c.word, c.pat); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.word, c.pat, got, c.want)
		}
	}
}

func TestPointModelAnswers(t *testing.T) {
	m := newPointModel()
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 4, Y: 3}, {X: 10, Y: 10}, {X: 2, Y: 2}, {X: 3, Y: 4}}
	for i, p := range pts {
		m.add(int64(i+1), p)
	}
	if got := m.exact(geom.Point{X: 3, Y: 4}); !slices.Equal(got, []int64{2, 6}) {
		t.Errorf("exact (3,4) = %v, want [2 6]", got)
	}
	// Borders count: (2,2) and (4,3) lie on the box's edges.
	if got := m.inBox(geom.MakeBox(2, 2, 4, 3)); !slices.Equal(got, []int64{3, 5}) {
		t.Errorf("inBox = %v, want [3 5]", got)
	}
	// From the origin: 0, then 2√2, then the three points at distance 5
	// (a tie the answer may break either way).
	want := []float64{0, 2 * math.Sqrt2, 5, 5, 5}
	if got := m.nearest(geom.Point{}, 5); !slices.Equal(got, want) {
		t.Errorf("nearest = %v, want %v", got, want)
	}
	m.remove(2)
	m.remove(1)
	if got := m.exact(geom.Point{X: 3, Y: 4}); !slices.Equal(got, []int64{6}) {
		t.Errorf("after remove: exact (3,4) = %v, want [6]", got)
	}
	if p, ok := m.get(6); !ok || p != (geom.Point{X: 3, Y: 4}) {
		t.Errorf("get(6) = %v, %v", p, ok)
	}
	if _, ok := m.get(1); ok {
		t.Error("get(1) found a removed row")
	}
}

func TestSatisfiesRechecksEveryOperator(t *testing.T) {
	word := catalog.NewText("cart")
	pt := catalog.NewPoint(geom.Point{X: 1, Y: 2})
	cases := []struct {
		op   string
		key  catalog.Datum
		arg  catalog.Datum
		want bool
	}{
		{"=", word, catalog.NewText("cart"), true},
		{"=", word, catalog.NewText("car"), false},
		{"#=", word, catalog.NewText("car"), true},
		{"#=", word, catalog.NewText("cat"), false},
		{"?=", word, catalog.NewText("c??t"), true},
		{"?=", word, catalog.NewText("c?t"), false},
		{"@", pt, catalog.NewPoint(geom.Point{X: 1, Y: 2}), true},
		{"@", pt, catalog.NewPoint(geom.Point{X: 1, Y: 2.5}), false},
		{"^", pt, catalog.NewBox(geom.MakeBox(1, 0, 3, 2)), true},
		{"^", pt, catalog.NewBox(geom.MakeBox(1.5, 0, 3, 2)), false},
	}
	for _, c := range cases {
		p := &executor.Pred{Op: c.op, Arg: c.arg}
		if got := satisfies(p, c.key); got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.key, c.op, c.arg, got, c.want)
		}
	}
}

func TestPointLiteralRoundTrips(t *testing.T) {
	for _, p := range []geom.Point{{X: 0.1, Y: 99.99999999999999}, {X: 1e-7, Y: 42}, {X: 100, Y: 0}} {
		lit := pointLit(p)
		got, err := parsePoint(lit[1 : len(lit)-1])
		if err != nil || got != p {
			t.Errorf("parsePoint(%s) = %v, %v; want %v", lit, got, err, p)
		}
		// The server prints points with geom's own formatting.
		if got, err := parsePoint(p.String()); err != nil || got != p {
			t.Errorf("parsePoint(%s) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
}
