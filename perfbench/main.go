// Command perfbench is the repository's benchmark. It generates a seeded
// flickr-syn-sized graph, runs one named workload against the real program
// in this process, checks the answers with an engine-independent oracle,
// and prints each metric by name with its unit, ending with one JSON line:
//
//	perfbench --workload solve-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// a separate traced run times calls into each layer and reports the
// per-layer metrics instead. Compare two saved result lines with
//
//	perfbench -compare before.json after.json
//
// perfbench/run.sh builds the program from source and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizeSpec
	spans    string // where the traced run writes its spans; "" skips it
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// spansDir is where a traced run writes its spans, when it exists.
const spansDir = ".bench_build"

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"solve-cold":    runSolveCold,
	"serve-zipf":    runServeZipf,
	"update-stream": runUpdateStream,
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: solve-cold, serve-zipf or update-stream")
	seed := fs.Int64("seed", 1, "workload seed: the graph, query seeds and updates derive from it")
	seconds := fs.Float64("seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	size := fs.String("size", "full", "graph size: full (flickr-syn) or tiny (self-test)")
	compare := fs.Bool("compare", false, "compare two saved result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		same, err := compareFiles(w, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return err
		}
		if !same {
			return errors.New("exact work counters differ")
		}
		return nil
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	sz, ok := sizes[*size]
	if !ok {
		return fmt.Errorf("unknown size %q", *size)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, size: sz}
	// The traced run writes its spans into the build directory run.sh
	// makes; without one (as in the self-test) it keeps them in memory only.
	if fi, err := os.Stat(spansDir); cfg.trace && err == nil && fi.IsDir() {
		cfg.spans = filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	rep, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	res, err := finish(cfg, rep)
	if err != nil {
		return err
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// finish turns a report into the result line: every metric of the run's
// list, with its unit. An untraced run must have measured every end-to-end
// metric; a traced run reports 0 for layers the workload leaves idle.
func finish(cfg config, rep *report) (*result, error) {
	res := &result{
		Correct:   rep.rejected == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if rep.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	errRatio := float64(rep.failed) / float64(rep.attempted)
	list := endToEnd
	if cfg.trace {
		list = perLayer
		rep.set("error_ratio", errRatio)
	} else {
		rep.notef("error_ratio %.6g ratio (%d failed of %d attempted, %d rejected by the oracle)",
			errRatio, rep.failed, rep.attempted, rep.rejected)
	}
	for _, d := range list {
		v, ok := rep.values[d.Name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}
