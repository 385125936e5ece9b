package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request or flush share Req; Parent is the span
// that made the call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the recorder's start
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, at the end.
// A nil recorder records nothing, so untraced runs pay one nil check.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent's end is known.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// record stores a finished span under a reserved id.
func (r *recorder) record(id, parent, req int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add reserves an id and records the span in one step, for leaves.
func (r *recorder) add(parent, req int64, name string, start, end time.Time) {
	r.record(r.id(), parent, req, name, start, end)
}

// layerTime is the aggregate of all spans of one name.
type layerTime struct {
	count int
	total time.Duration // summed durations
	self  time.Duration // summed durations minus the time children cover
}

// selfTimes aggregates the spans by name. A span's self time is its
// duration minus the part of it that the union of its children covers.
func (r *recorder) selfTimes() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range r.spans {
		lt := out[s.Name]
		lt.count++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64
	end = -1 << 62
	for _, v := range iv {
		if v[0] > end {
			sum += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			sum += v[1] - end
			end = v[1]
		}
	}
	return time.Duration(sum)
}

// meanSelfMS returns the mean self time of the named spans in ms.
func meanSelfMS(lt map[string]layerTime, name string) float64 {
	t := lt[name]
	if t.count == 0 {
		return 0
	}
	return ms(t.self) / float64(t.count)
}

// meanMS returns the mean duration of the named spans in ms.
func meanMS(lt map[string]layerTime, name string) float64 {
	t := lt[name]
	if t.count == 0 {
		return 0
	}
	return ms(t.total) / float64(t.count)
}

// writeTo dumps the spans as JSON lines to path; an empty path skips it.
func (r *recorder) writeTo(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
