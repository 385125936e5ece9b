package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSuiteSizes(t *testing.T) {
	tiny := Suite(Tiny)
	if len(tiny) != 2 {
		t.Fatalf("tiny suite has %d datasets", len(tiny))
	}
	small := Suite(Small)
	if len(small) != 4 {
		t.Fatalf("small suite has %d datasets", len(small))
	}
	for i := 1; i < len(small); i++ {
		if small[i].G.N() < small[i-1].G.N() {
			t.Fatal("suite not ordered smallest first")
		}
	}
}

func TestSuiteGraphLookup(t *testing.T) {
	d, err := SuiteGraph("slashdot-syn", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if d.G.N() != 128 {
		t.Fatalf("N = %d", d.G.N())
	}
	if _, err := SuiteGraph("nope", Tiny); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if _, err := SuiteGraph("friendster-syn", Tiny); err == nil {
		t.Fatal("expected error for dataset absent at tiny size")
	}
}

func TestQuerySeedsDeterministic(t *testing.T) {
	g := Suite(Tiny)[0].G
	a := QuerySeeds(g, 5, 1)
	b := QuerySeeds(g, 5, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seeds not deterministic")
		}
		if a[i] < 0 || a[i] >= g.N() {
			t.Fatal("seed out of range")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col", "value"},
	}
	tb.AddRow("a", "1")
	tb.AddRow("bbbb", "22")
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "a note", "col", "bbbb"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := tb.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csvBuf.String(), "\n"); got != 3 {
		t.Fatalf("CSV lines = %d", got)
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{FmtDuration(0), "0"},
		{FmtDuration(1500 * time.Nanosecond), "1.5µs"},
		{FmtDuration(2500 * time.Microsecond), "2.50ms"},
		{FmtDuration(3 * time.Second), "3.00s"},
		{FmtBytes(512), "512B"},
		{FmtBytes(2 << 10), "2.0KiB"},
		{FmtBytes(3 << 20), "3.0MiB"},
		{FmtBytes(5 << 30), "5.00GiB"},
		{FmtCount(999), "999"},
		{FmtCount(1234567), "1,234,567"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 3·x^1.5 exactly.
	xs := []float64{10, 100, 1000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	if s := loglogSlope(xs, ys); s < 1.49 || s > 1.51 {
		t.Fatalf("slope = %v, want 1.5", s)
	}
	if s := loglogSlope([]float64{1}, []float64{1}); !math.IsNaN(s) {
		t.Fatal("expected NaN for single point")
	}
}

// TestEveryExperimentRunsAtTinySize is the harness integration test: all
// twelve tables/figures must run end to end and produce non-empty tables.
func TestEveryExperimentRunsAtTinySize(t *testing.T) {
	cfg := Config{Size: Tiny, Seeds: 2}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			tables, err := exp.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", exp.Name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", exp.Name)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: table %q is empty", exp.Name, tb.Title)
				}
				if len(tb.Header) == 0 {
					t.Fatalf("%s: table %q has no header", exp.Name, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Fatalf("%s: table %q row width %d != header %d",
							exp.Name, tb.Title, len(row), len(tb.Header))
					}
				}
				var buf bytes.Buffer
				if err := tb.Fprint(&buf); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := FindExperiment("fig1"); !ok {
		t.Fatal("fig1 missing")
	}
	if _, ok := FindExperiment("abl-solver"); !ok {
		t.Fatal("ablation missing")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Fatal("unexpected experiment")
	}
}

// TestAblationsRunAtTinySize exercises the beyond-paper ablations.
func TestAblationsRunAtTinySize(t *testing.T) {
	cfg := Config{Size: Tiny, Seeds: 2}
	for _, exp := range AblationExperiments() {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			tables, err := exp.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", exp.Name, err)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: table %q is empty", exp.Name, tb.Title)
				}
			}
		})
	}
}

func TestFig4UShape(t *testing.T) {
	// The defining property of Figure 4: at small k the cross term
	// dominates; it must shrink as k grows.
	tables, err := Fig4(Config{Size: Tiny, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) < 3 {
		t.Fatalf("too few rows: %d", len(rows))
	}
	// Compare the cross term of the first dataset at the lowest and
	// highest k.
	first := parseCount(t, rows[0][5])
	var lastSameDataset []string
	for _, r := range rows {
		if r[0] == rows[0][0] {
			lastSameDataset = r
		}
	}
	last := parseCount(t, lastSameDataset[5])
	if last >= first {
		t.Fatalf("cross term did not shrink with k: %d → %d", first, last)
	}
}

func parseCount(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(strings.ReplaceAll(s, ",", ""))
	if err != nil {
		t.Fatalf("parsing count %q: %v", s, err)
	}
	return v
}

// TestKernelsLayoutAB runs the kernels experiment and checks the memory
// table reports a strictly positive saving for the compact layout.
func TestKernelsLayoutAB(t *testing.T) {
	tables, err := Kernels(Config{Size: Tiny, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	for _, row := range tables[0].Rows {
		saving := strings.TrimSuffix(row[3], "%")
		v, err := strconv.ParseFloat(saving, 64)
		if err != nil {
			t.Fatalf("bad saving cell %q: %v", row[3], err)
		}
		if v <= 0 {
			t.Fatalf("dataset %s reports no index saving (%v%%)", row[0], v)
		}
	}
}
