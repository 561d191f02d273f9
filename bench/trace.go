package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one query share
// Query; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Every span is recorded
// by the benchmark around a call into a layer — through the router, by a
// direct RPC to one daemon, or into a package in-process — never by the
// program under test.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	counts   map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: map[string]float64{}}
}

// add records one finished span and returns its id.
func (t *tracer) add(query, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Query: query, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(query, parent int, name string, fn func() error) (int, time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	return t.add(query, parent, name, start, end), end.Sub(start), err
}

// selfTimes returns, per span name, the median self time in microseconds:
// a span's duration minus the durations of its children. Children here
// are replays of the same query issued after their parent returned, so
// the subtraction is on durations, not on overlapping intervals; a
// negative remainder (a replay slower than the call it replays) is 0.
func selfTimes(spans []span) map[string]float64 {
	childSum := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string][]float64{}
	for _, s := range spans {
		self := (s.EndNS - s.StartNS) - childSum[s.ID]
		if self < 0 {
			self = 0
		}
		byName[s.Name] = append(byName[s.Name], float64(self)/1e3)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// durations returns the sorted durations in microseconds of every span
// called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// traceFile is what write leaves on disk.
type traceFile struct {
	Workload  string             `json:"workload"`
	SelfUSP50 map[string]float64 `json:"self_us_p50"`
	Counts    map[string]float64 `json:"counts"`
	Spans     []span             `json:"spans"`
}

// write stores the spans as dir/trace_<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s.json", t.workload))
	data, err := json.Marshal(traceFile{
		Workload: t.workload, SelfUSP50: selfTimes(t.spans), Counts: t.counts, Spans: t.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
