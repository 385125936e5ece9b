package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"bepi"
)

// runTiny runs one workload on the tiny graph and returns its printed
// output and parsed result line.
func runTiny(t *testing.T, workload string, trace int) (string, result) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny",
		"--trace", strconv.Itoa(trace)}
	if err := run(&out, args); err != nil {
		t.Fatalf("%s trace=%d: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not a result: %v", workload, trace, err)
	}
	return out.String(), res
}

// TestTinyRunsPrintEveryMetric checks that each workload, untraced and
// traced, prints every metric of its list by name with its unit, in the
// human lines and in the result line, and that its answers pass the oracle.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	for _, w := range []string{"solve-cold", "serve-zipf", "update-stream"} {
		for trace, list := range [][]metricDef{endToEnd, perLayer} {
			out, res := runTiny(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(list))
			}
			for _, d := range list {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, d.Name, m, d.Unit)
				}
				if !strings.Contains(out, d.Name+" ") {
					t.Errorf("%s trace=%d: %s not printed by name", w, trace, d.Name)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
		}
	}
}

// TestTracedCountersRepeat checks that the exact work counters of a traced
// run are identical when the run is repeated on one seed.
func TestTracedCountersRepeat(t *testing.T) {
	for _, w := range []string{"solve-cold", "update-stream"} {
		_, a := runTiny(t, w, 1)
		_, b := runTiny(t, w, 1)
		for _, d := range perLayer {
			if d.Exact && a.Metrics[d.Name] != b.Metrics[d.Name] {
				t.Errorf("%s: exact counter %s differs across runs: %v vs %v", w, d.Name, a.Metrics[d.Name], b.Metrics[d.Name])
			}
		}
	}
}

// TestSpansWrittenAsJSONLines checks that the recorder writes every span,
// with its parent and request, one JSON object per line.
func TestSpansWrittenAsJSONLines(t *testing.T) {
	rec := newRecorder()
	root := rec.id()
	t0 := rec.t0
	rec.add(root, 7, "child", t0.Add(time.Millisecond), t0.Add(2*time.Millisecond))
	rec.record(root, 0, 7, "root", t0, t0.Add(3*time.Millisecond))
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.writeTo(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		got = append(got, s)
	}
	want := []span{
		{ID: 2, Parent: root, Req: 7, Name: "child", Start: 1e6, End: 2e6},
		{ID: root, Req: 7, Name: "root", Start: 0, End: 3e6},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("spans written = %+v, want %+v", got, want)
	}
}

// TestOracleRejectsCorruptedAnswers checks that the oracle accepts the
// engine's answer and rejects it once a score or a top-k node is changed.
func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	in, err := makeInputs(sizes["tiny"], 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := bepi.New(in.g)
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(in.n, in.edges)
	seed := in.edges[0].Src
	r, err := eng.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := orc.checkScores(seed, r); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	bad := append([]float64(nil), r...)
	bad[in.edges[0].Dst] += 1e-6
	if err := orc.checkScores(seed, bad); err == nil {
		t.Error("answer with a corrupted score accepted")
	}

	top, err := eng.TopK(seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(top))
	for i, x := range top {
		want[i] = x.Node
	}
	if err := checkTopSet(seed, want, want, r); err != nil {
		t.Fatalf("correct top set rejected: %v", err)
	}
	got := append([]int(nil), want...)
	for u := range r { // swap in the lowest-scoring node
		if r[u] < r[got[len(got)-1]]-1e-6 && u != seed {
			got[len(got)-1] = u
			break
		}
	}
	if err := checkTopSet(seed, got, want, r); err == nil {
		t.Error("top set with a wrong node accepted")
	}
	if err := checkRanking(seed, 10, in.n, []bepi.Ranked{{Node: seed, Score: 1}}); err == nil {
		t.Error("ranking that holds the seed accepted")
	}
}

// TestBenchmarkJSONMatchesRegistry checks that BENCHMARK.json lists the
// metrics this program reports, with the same units and directions.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Workload []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got, want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program has %d", len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			g, w := c.got[i], c.want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("BENCHMARK.json metric %d = %s %s %s, program has %s %s %s", i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	for _, w := range spec.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}

// TestCompareFlagsWorkChange checks that -compare passes identical work
// counters and fails when one changes.
func TestCompareFlagsWorkChange(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, hubs float64) string {
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"reorder.hubs":         {Value: hubs, Unit: "count"},
			"reorder.slashburn_ms": {Value: 70 + hubs/1000, Unit: "ms"},
		}}
		line, _ := json.Marshal(res)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a", 5929), write("b", 5929), write("c", 5930)
	var out bytes.Buffer
	if err := run(&out, []string{"-compare", a, b}); err != nil {
		t.Errorf("identical counters flagged: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run(&out, []string{"-compare", a, c}); err == nil || !strings.Contains(out.String(), "WORK") {
		t.Errorf("changed counter not flagged: %v\n%s", err, out.String())
	}
}
