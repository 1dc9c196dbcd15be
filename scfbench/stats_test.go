package main

import "testing"

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9.0, 2.0, 7.75, 4.0, 6.5}, 2.0, 4.0, 7.75},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
}
