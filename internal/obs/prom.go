package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// PromWriter emits the Prometheus text exposition format (version 0.0.4).
// It tracks family names and rejects duplicates, so an exposition
// assembled from several subsystems cannot silently emit a family twice —
// the failure mode Prometheus itself rejects at scrape time.
type PromWriter struct {
	w    io.Writer
	seen map[string]bool
	err  error
}

// NewPromWriter wraps w. Check Err after writing every family.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

// Err returns the first error encountered (I/O, invalid name, or duplicate
// family).
func (p *PromWriter) Err() error { return p.err }

// validName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (p *PromWriter) family(name, typ, help string) bool {
	if p.err != nil {
		return false
	}
	if !validName(name) {
		p.err = fmt.Errorf("obs: invalid metric name %q", name)
		return false
	}
	if p.seen[name] {
		p.err = fmt.Errorf("obs: duplicate metric family %q", name)
		return false
	}
	p.seen[name] = true
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n",
		name, strings.ReplaceAll(help, "\n", " "), name, typ)
	return p.err == nil
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *PromWriter) sample(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s %s\n", name, labels, promFloat(v))
}

// Counter writes a single-sample counter family.
func (p *PromWriter) Counter(name, help string, v float64) {
	if p.family(name, "counter", help) {
		p.sample(name, "", v)
	}
}

// Gauge writes a single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, v float64) {
	if p.family(name, "gauge", help) {
		p.sample(name, "", v)
	}
}

// GaugeVec writes one gauge family with a sample per value of the given
// label, in sorted label order for a reproducible exposition.
func (p *PromWriter) GaugeVec(name, help, label string, vals map[string]float64) {
	if !p.family(name, "gauge", help) {
		return
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.sample(name, fmt.Sprintf("%s=%q", label, k), vals[k])
	}
}

// InfoGauge writes a gauge family with one constant-1 sample carrying the
// given labels (the `foo_build_info` idiom: the values live in the labels).
// Labels are written in sorted key order for a reproducible exposition.
func (p *PromWriter) InfoGauge(name, help string, labels map[string]string) {
	if !p.family(name, "gauge", help) {
		return
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	p.sample(name, strings.Join(parts, ","), 1)
}

// WriteBuildInfo emits the standard bepi_build_info gauge from a BuildInfo.
func WriteBuildInfo(p *PromWriter, b BuildInfo) {
	p.InfoGauge("bepi_build_info", "Build identity; the values are in the labels.",
		map[string]string{
			"version":    b.Version,
			"go_version": b.GoVersion,
		})
}

// CounterVec writes one counter family with a sample per value of the
// given label, in sorted label order for a reproducible exposition.
func (p *PromWriter) CounterVec(name, help, label string, vals map[string]float64) {
	if !p.family(name, "counter", help) {
		return
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.sample(name, fmt.Sprintf("%s=%q", label, k), vals[k])
	}
}

// Histogram writes a snapshot as a Prometheus histogram family: cumulative
// `le` buckets, then _sum and _count.
func (p *PromWriter) Histogram(name, help string, s HistSnapshot) {
	if !p.family(name, "histogram", help) {
		return
	}
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		p.sample(name+"_bucket", fmt.Sprintf("le=%q", promFloat(b)), float64(cum))
	}
	p.sample(name+"_bucket", `le="+Inf"`, float64(s.Count))
	p.sample(name+"_sum", "", s.Sum)
	p.sample(name+"_count", "", float64(s.Count))
}

// CounterHist writes an integer bucket histogram (e.g. qexec's batch-size
// counters) as a Prometheus histogram family. counts are per-bucket with a
// final overflow bucket, matching Histogram's layout; sum is the total of
// the observed values when known (pass NaN to omit _sum).
func (p *PromWriter) CounterHist(name, help string, bounds []int, counts []int64, sum float64) {
	if !p.family(name, "histogram", help) {
		return
	}
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		p.sample(name+"_bucket", fmt.Sprintf("le=%q", promFloat(float64(b))), float64(cum))
	}
	cum += counts[len(bounds)]
	p.sample(name+"_bucket", `le="+Inf"`, float64(cum))
	if !math.IsNaN(sum) {
		p.sample(name+"_sum", "", sum)
	}
	p.sample(name+"_count", "", float64(cum))
}

// WriteGoStats emits Go runtime health: goroutines, heap, GC activity.
func WriteGoStats(p *PromWriter) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.Gauge("go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine()))
	p.Gauge("go_mem_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(m.HeapAlloc))
	p.Gauge("go_mem_heap_sys_bytes", "Heap memory obtained from the OS.", float64(m.HeapSys))
	p.Gauge("go_mem_heap_objects", "Number of allocated heap objects.", float64(m.HeapObjects))
	p.Counter("go_mem_alloc_bytes_total", "Cumulative bytes allocated.", float64(m.TotalAlloc))
	p.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(m.NumGC))
	p.Counter("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", float64(m.PauseTotalNs)/1e9)
	p.Gauge("go_gc_next_target_bytes", "Heap size at which the next GC runs.", float64(m.NextGC))
	p.Gauge("go_maxprocs", "GOMAXPROCS.", float64(runtime.GOMAXPROCS(0)))
}
