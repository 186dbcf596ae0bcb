package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent indexes the span that made this call; -1 for a root.
	Parent int32 `json:"parent"`
	// Query is the attempt number shared by one query's spans; Index its
	// trace position.
	Query uint64 `json:"query"`
	Index int    `json:"index"`
	// Archive names the site of a federation call.
	Archive string `json:"archive,omitempty"`
	// N counts the call's work items (objects shipped to a hop or
	// extracted).
	N int64 `json:"n,omitempty"`
	// Inner is the node-side share of a hop: MatchResponse.Elapsed across
	// TCP, the whole call in process.
	Inner int64 `json:"inner_ns,omitempty"`
	// Remote marks a hop over the gob TCP transport.
	Remote bool `json:"remote,omitempty"`
	// Self is the span's duration minus what its children and Inner
	// cover; filled in by selfTimes.
	Self int64 `json:"self_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanRec keeps spans in memory until the run ends.
type spanRec struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRec() *spanRec {
	return &spanRec{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (r *spanRec) begin(s span) int32 {
	s.Start = int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// end closes span id. n and inner update the span's counts when
// non-zero; inner < 0 marks the whole call as node-side time.
func (r *spanRec) end(id int32, n, inner int64) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = now
	if n != 0 {
		s.N = n
	}
	if inner < 0 {
		inner = s.dur()
	}
	s.Inner = inner
}

// finished returns the closed spans with their self times filled in.
func (r *spanRec) finished() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	selfTimes(out)
	return out
}

// selfTimes sets each span's Self: its duration minus the union of its
// children's intervals and its Inner share, floored at zero.
func selfTimes(spans []span) {
	kids := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		covered := int64(0)
		cs := kids[int32(i)]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(spans[c].Start, cur), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = max(s.dur()-covered-s.Inner, 0)
	}
}

// dump writes the spans as JSON lines.
func (r *spanRec) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.finished() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
