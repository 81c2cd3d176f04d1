package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call
// into the program. Spans of one request or job share Req; Parent is
// the id of the span that caused this one (0 for a root).
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Req      int64  `json:"req"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how an untraced run (and the untraced
// slices of a traced run) skip the work.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	reqs  int64
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// newReq hands out the identifier shared by one request's spans.
func (r *recorder) newReq() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// add records a finished span and returns its id.
func (r *recorder) add(parent int64, name string, req int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload, Req: req,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// reserve records a root span before its children exist, so they can
// name it as parent; finish fills in the interval.
func (r *recorder) reserve(name string, req int64) int64 {
	return r.add(0, name, req, time.Time{}, time.Time{})
}

func (r *recorder) finish(id int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.StartNS, s.EndNS = start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
}

// time runs fn inside a span and returns how long it took.
func (r *recorder) time(parent int64, name string, req int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(parent, name, req, start, end)
	return end.Sub(start)
}

// nameSummary is the per-name roll-up at the head of a trace file.
type nameSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is total time minus the part of each span its children
	// cover: the time spent at this level and not below it.
	SelfMS   float64 `json:"self_ms"`
	MedianUS float64 `json:"median_us"`
}

type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Summary  []nameSummary `json:"summary"`
	Spans    []span        `json:"spans"`
}

// summarize computes per-name totals and self times. Children of one
// parent never overlap here (each goroutine records its spans in
// sequence), so the covered part of a span is the sum of its children.
func summarize(spans []span) []nameSummary {
	childNS := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	type acc struct {
		total, self int64
		durs        sample
	}
	by := map[string]*acc{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		d := s.EndNS - s.StartNS
		a.total += d
		a.self += d - childNS[s.ID]
		a.durs = append(a.durs, float64(d))
	}
	out := make([]nameSummary, 0, len(by))
	for name, a := range by {
		out = append(out, nameSummary{
			Name: name, Count: len(a.durs),
			TotalMS: float64(a.total) / 1e6, SelfMS: float64(a.self) / 1e6,
			MedianUS: a.durs.q(0.5) / 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the trace as JSON at path.
func (r *recorder) write(path string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(traceFile{
		Workload: r.workload, Seed: seed, Summary: summarize(r.spans), Spans: r.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
