package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// readResults returns every result line in a file: the benchmark's stdout,
// one or more runs appended (e.g. `run.sh ... >> before.json`).
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result line", path)
	}
	return out, nil
}

// compareFiles prints, per metric, the median of each file's runs and the
// change between them. A change in an exact work counter is always flagged
// (WORK); a change in any other metric is flagged (MOVED) only when the
// medians differ by more than the larger interquartile range of the two
// sides, the runs' own noise band. It reports whether every exact counter
// agreed.
func compareFiles(w io.Writer, before, after string) (bool, error) {
	a, err := readResults(before)
	if err != nil {
		return false, err
	}
	b, err := readResults(after)
	if err != nil {
		return false, err
	}
	names := map[string]bool{}
	for _, rs := range [][]result{a, b} {
		for _, r := range rs {
			for n := range r.Metrics {
				names[n] = true
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	same := true
	fmt.Fprintf(w, "%-28s %14s %14s %9s  %s\n", "metric", "before", "after", "change", "flag")
	for _, n := range sorted {
		va, vb := values(a, n), values(b, n)
		if len(va) == 0 || len(vb) == 0 {
			fmt.Fprintf(w, "%-28s only in one file\n", n)
			continue
		}
		ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
		change := math.NaN()
		if ma != 0 {
			change = mb/ma - 1
		}
		flag := ""
		def, _ := findDef(n)
		switch {
		case def.Exact:
			if !allEqual(va, vb) {
				flag = "WORK"
				same = false
			}
		case math.Abs(mb-ma) > math.Max(iqr(va), iqr(vb)):
			flag = "MOVED"
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %+8.1f%%  %s\n", n, ma, mb, 100*change, flag)
	}
	return same, nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func allEqual(a, b []float64) bool {
	for _, xs := range [][]float64{a, b} {
		for _, x := range xs {
			if x != a[0] {
				return false
			}
		}
	}
	return true
}
