package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"overlay"
)

// Test-sized twins of the experiments: each asserts the *shape* of the
// paper claim at small scale so that plain `go test` guards the
// reproduction.

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d)", tab.Name, row, col)
	}
	return tab.Rows[row][col]
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not numeric", tab.Name, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tab, err := E1RoundsVsN([]int{64, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// rounds/log2n must stay within a narrow band across sizes for
	// each topology (log-scaling), here 2 sizes x 4 topologies.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		a := cellFloat(t, tab, i, 3)
		b := cellFloat(t, tab, i+1, 3)
		if b > 2*a || a > 2*b {
			t.Errorf("%s: rounds/log n drifted %f -> %f", cell(t, tab, i, 0), a, b)
		}
	}
}

func TestE2Shape(t *testing.T) {
	tab, err := E2Messages([]int{64, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized per-round and total loads must not explode with n.
	for col := range []int{2, 4} {
		a := cellFloat(t, tab, 0, []int{2, 4}[col])
		b := cellFloat(t, tab, 1, []int{2, 4}[col])
		if b > 2.5*a {
			t.Errorf("normalized load col %d grew %f -> %f", col, a, b)
		}
	}
}

func TestE3Shape(t *testing.T) {
	tab, err := E3Conductance(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := cellFloat(t, tab, 0, 1)
	last := cellFloat(t, tab, len(tab.Rows)-1, 1)
	if last < 20*first {
		t.Errorf("spectral gap grew only %f -> %f", first, last)
	}
	if last < 0.03 {
		t.Errorf("final gap %f below constant-conductance plateau", last)
	}
}

func TestE4Shape(t *testing.T) {
	tab, err := E4TokenLoad(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		load := cellFloat(t, tab, i, 1)
		bound := cellFloat(t, tab, i, 2)
		if load <= 0 {
			t.Errorf("evolution %d: no token load measured", i)
		}
		if load > 2*bound {
			t.Errorf("evolution %d: load %f far above 3∆/8 = %f", i, load, bound)
		}
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := E5TreeQuality([]int{64, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		depth := cellFloat(t, tab, i, 1)
		logn := cellFloat(t, tab, i, 2)
		if depth > logn {
			t.Errorf("row %d: depth %f exceeds log n %f", i, depth, logn)
		}
		if deg := cellFloat(t, tab, i, 3); deg > 3 {
			t.Errorf("row %d: degree %f exceeds 3", i, deg)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tab, err := E6Baseline([]int{64, 512}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline/this-work ratio must grow with n (baseline is
	// log² n vs our log n).
	small := cellFloat(t, tab, 0, 3)
	large := cellFloat(t, tab, 1, 3)
	if large <= small {
		t.Errorf("baseline ratio should grow with n: %f -> %f", small, large)
	}
}

func TestE7Shape(t *testing.T) {
	tab, err := E7CC(256, []int{16, 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := cellFloat(t, tab, 0, 3)
	large := cellFloat(t, tab, 1, 3)
	if large <= small {
		t.Errorf("rounds should grow with m: %f -> %f", small, large)
	}
	// γ within its log³ n budget (generous constant).
	for i := range tab.Rows {
		gamma := cellFloat(t, tab, i, 5)
		budget := cellFloat(t, tab, i, 6)
		if gamma > 3*budget {
			t.Errorf("row %d: γ = %f exceeds 3·log³ n = %f", i, gamma, 3*budget)
		}
	}
}

func TestE8Shape(t *testing.T) {
	tab, err := E8SpanningTree([]int{64, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if cell(t, tab, i, 1) != "true" {
			t.Errorf("row %d: invalid spanning tree", i)
		}
	}
	a := cellFloat(t, tab, 0, 3)
	b := cellFloat(t, tab, 1, 3)
	if b > 2.5*a {
		t.Errorf("rounds/log n drifted %f -> %f", a, b)
	}
}

func TestE9Shape(t *testing.T) {
	tab, err := E9Biconnectivity(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if cell(t, tab, i, 5) != "true" {
			t.Errorf("%s: oracle mismatch", cell(t, tab, i, 0))
		}
	}
}

func TestE10Shape(t *testing.T) {
	tab, err := E10MIS(200, []int{2, 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shatter rounds grow with log d.
	a := cellFloat(t, tab, 0, 2)
	b := cellFloat(t, tab, 1, 2)
	if b <= a {
		t.Errorf("shatter rounds should grow with d: %f -> %f", a, b)
	}
}

func TestE11Shape(t *testing.T) {
	tab, err := E11Spanner([]int{128, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if cell(t, tab, i, 4) != "true" {
			t.Errorf("row %d: spanner broke components", i)
		}
		hdeg := cellFloat(t, tab, i, 2)
		budget := cellFloat(t, tab, i, 3)
		if hdeg > budget {
			t.Errorf("row %d: H degree %f exceeds 8 log n = %f", i, hdeg, budget)
		}
	}
}

func TestE12Shape(t *testing.T) {
	// Small-scale twin of the scale sweep: rounds stay O(log n) and the
	// workers knob does not change the measured protocol quantities.
	tab, err := E12ScaleSweep([]int{128, 512}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := cellFloat(t, tab, 0, 2)
	b := cellFloat(t, tab, 1, 2)
	if b > 2*a || a > 2*b {
		t.Errorf("rounds/log n drifted %f -> %f across sizes", a, b)
	}
	forced, err := E12ScaleSweep([]int{128, 512}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		// Columns 0..4 are protocol-determined (n, rounds, rounds/log,
		// peak load, messages); wall time and allocs may differ.
		for col := 0; col <= 4; col++ {
			if cell(t, tab, i, col) != cell(t, forced, i, col) {
				t.Errorf("row %d col %d: %q (workers=0) vs %q (workers=4)",
					i, col, cell(t, tab, i, col), cell(t, forced, i, col))
			}
		}
	}
}

// TestLosingDrawIsTyped: a message-level table whose build loses a cut
// of its input reports BuildTree's typed error. Seed 35 is the first of
// 0..399 whose message-level build of a 16-node line disconnects, and
// each table below builds that line first.
func TestLosingDrawIsTyped(t *testing.T) {
	for name, run := range map[string]func() (*Table, error){
		"E1":  func() (*Table, error) { return E1RoundsVsN([]int{16}, 35) },
		"E2":  func() (*Table, error) { return E2Messages([]int{16}, 35) },
		"E6":  func() (*Table, error) { return E6Baseline([]int{16}, 35) },
		"E12": func() (*Table, error) { return E12ScaleSweep([]int{16}, 35, 1) },
	} {
		if _, err := run(); !errors.Is(err, overlay.ErrEvolutionDisconnected) {
			t.Errorf("%s on a losing draw: %v; want overlay.ErrEvolutionDisconnected", name, err)
		}
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{Name: "X", Claim: "c", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.String()
	if !strings.Contains(s, "## X — c") || !strings.Contains(s, "bb") {
		t.Errorf("rendering wrong:\n%s", s)
	}
}
