package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"liferaft/internal/metric"
	"liferaft/internal/workload"
)

// scale sizes a workload. The full-size values live in workloads; the
// self-test shrinks them.
type scale struct {
	objects   int // base survey size
	genLevel  int
	perBucket int
	cache     int // RAM bucket cache capacity
	// traceLen is the number of distinct trace queries; every phase
	// starts at the first and cycles through them.
	traceLen int
	// warmup queries run, untimed, at the end of every set-up.
	warmup int
	// clients is the closed-loop concurrency.
	clients int
	// objectBytes is the on-disk stride of a file-backed node.
	objectBytes int64
}

// traffic is a workload: its trace and how to build the stack it
// drives.
type traffic struct {
	// hotFraction is the share of trace queries aimed at hotspots.
	hotFraction float64
	// fileBacked: the node reads segment files, so the process's read
	// bytes are bucket reads.
	fileBacked bool
	// volume scales the trace's shipped volume (see genTrace).
	volume float64
	scale  scale
	// setup wires the stack the trace qs runs against.
	setup func(cfg config, sc scale, qs []workload.Query) (stack, error)
}

var workloads = map[string]traffic{
	"gateway_mix": {
		hotFraction: 0.7, volume: 1,
		scale: scale{objects: 200_000, genLevel: 5, perBucket: 500, cache: 20,
			traceLen: 4000, warmup: 200, clients: 2},
		setup: setupGateway,
	},
	"node_uniform_disk": {
		fileBacked: true, volume: 0.25,
		scale: scale{objects: 200_000, genLevel: 5, perBucket: 500, cache: 20,
			traceLen: 6000, warmup: 100, clients: 2, objectBytes: 512},
		setup: setupDiskNode,
	},
}

// stack is a wired LifeRaft stack under test.
type stack interface {
	// send runs trace query idx once and reports what came back; the
	// load generator fills in the timings. It records spans into the tracer
	// installed by setTracer, if any.
	send(idx int) outcome
	// expect computes the oracle's answer for trace query idx without
	// touching the engine.
	expect(idx int) answer
	// setTracer installs (nil removes) the span recorder.
	setTracer(tr *spanRec)
	// registry is the measured node's metric registry.
	registry() *metric.Registry
	// setupLayers reports per-layer timings the set-up measured (the node
	// workload compiles and extracts its requests there).
	setupLayers() setupTimings
	close() error
}

// setupTimings are mean per-call times of layers the node workload only
// exercises while it builds its requests.
type setupTimings struct {
	compileUs, extractUs float64
}

// answer is a query's result in checkable form: its row (or pair) count
// and an order-independent digest of the object IDs.
type answer struct {
	count  int
	digest uint64
}

// outcome is one attempted query.
type outcome struct {
	idx int
	// ok: a reply came back without error (HTTP 200, no transport error,
	// not rejected). The oracle clears it when the answer is wrong.
	ok       bool
	rejected bool
	// lat runs from send to reply; late is how long the client took to
	// send after its previous reply came in; done is when the reply came,
	// from the start of the phase.
	lat, late, done time.Duration
	answer
}

// phase is one timed stretch of a run.
type phase struct {
	outcomes      []outcome
	wall          time.Duration
	gcs           uint32
	rchar         int64
	before, after promSnap
	// samples cut the phase into windows: process counters at the start,
	// at every window boundary and at the end.
	samples []sample
}

// slices is how many equal time slices a phase is sampled in. The
// end-to-end metrics are medians over windows of whole slices, so a burst
// of interference from outside the process moves at most one window.
const slices = 10

// minPerWindow is the fewest completed queries a window may hold, so its
// p99 has at least ten samples beyond it.
const minPerWindow = 1000

// sample is a reading of the process counters during a phase.
type sample struct {
	at                  time.Duration
	cpu                 time.Duration
	mallocs, allocBytes uint64
}

func takeSample(start time.Time) sample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return sample{at: time.Since(start), cpu: cpuTime(), mallocs: m.Mallocs, allocBytes: m.TotalAlloc}
}

// sampleWindows reads the counters at each window boundary until stop is
// closed, then sends them.
func sampleWindows(start time.Time, dur time.Duration, stop <-chan struct{}, out chan<- []sample) {
	var got []sample
	for w := 1; w < slices; w++ {
		select {
		case <-time.After(time.Until(start.Add(dur * time.Duration(w) / slices))):
			got = append(got, takeSample(start))
		case <-stop:
			out <- got
			return
		}
	}
	<-stop
	out <- got
}

// windows splits the phase into as many windows of whole slices as
// keeps minPerWindow completed queries in each (10, 5, 2 or 1). A window
// holds the outcomes whose replies came in it, and its first and last
// sample. A failed outcome keeps the whole phase as its latency.
func (p *phase) windows() []*phase {
	n := len(p.samples) - 1
	per := n
	for _, k := range []int{1, 2, 5} {
		if n%k == 0 && p.completed() >= minPerWindow*(n/k) {
			per = k
			break
		}
	}
	ws := make([]*phase, n/per)
	for i := range ws {
		ws[i] = &phase{wall: p.wall, samples: []sample{p.samples[i*per], p.samples[(i+1)*per]}}
	}
	for _, o := range p.outcomes {
		i := sort.Search(len(ws), func(i int) bool { return o.done < ws[i].samples[1].at })
		i = min(i, len(ws)-1)
		ws[i].outcomes = append(ws[i].outcomes, o)
	}
	return ws
}

func (p *phase) counts() (attempted, failed int) {
	for _, o := range p.outcomes {
		if !o.ok {
			failed++
		}
	}
	return len(p.outcomes), failed
}

func (p *phase) completed() int {
	attempted, failed := p.counts()
	return attempted - failed
}

func (p *phase) qps() float64 { return float64(p.completed()) / p.wall.Seconds() }

// latenciesMs returns every attempt's latency in ms, sorted. A failed
// query has no latency: it counts as missing any limit, so it enters as
// the whole phase's duration.
func (p *phase) latenciesMs() []float64 {
	out := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		d := o.lat
		if !o.ok {
			d = p.wall
		}
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func (p *phase) latenessMs() []float64 {
	out := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		out[i] = float64(o.late) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// loadGen generates a workload's load against a stack.
type loadGen struct {
	wl     traffic
	sc     scale
	st     stack
	seed   int64
	phases int64
}

// measure runs one timed phase of length dur, with spans recorded when
// tr is non-nil.
func (d *loadGen) measure(dur time.Duration, tr *spanRec) *phase {
	d.st.setTracer(tr)
	defer d.st.setTracer(nil)
	runtime.GC()
	p := &phase{before: scrape(d.st.registry())}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rchar0 := readChars()
	start := time.Now()
	first := sample{cpu: cpuTime(), mallocs: m0.Mallocs, allocBytes: m0.TotalAlloc}
	stop, sampled := make(chan struct{}), make(chan []sample, 1)
	go sampleWindows(start, dur, stop, sampled)
	p.outcomes = d.closed(start, dur)
	close(stop)
	last := takeSample(start)
	p.samples = append(append([]sample{first}, <-sampled...), last)
	p.wall = last.at
	p.rchar = readChars() - rchar0
	runtime.ReadMemStats(&m1)
	p.after = scrape(d.st.registry())
	p.gcs = m1.NumGC - m0.NumGC
	return p
}

// closed runs sc.clients closed-loop clients until dur has passed: each
// sends its next query as soon as the previous reply is in.
func (d *loadGen) closed(start time.Time, dur time.Duration) []outcome {
	deadline := start.Add(dur)
	var next atomic.Int64
	per := make([][]outcome, d.sc.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := start
			for {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				idx := int(next.Add(1)-1) % d.sc.traceLen
				o := d.st.send(idx)
				done := time.Now()
				o.idx, o.lat, o.late, o.done = idx, done.Sub(sent), sent.Sub(prev), done.Sub(start)
				per[c] = append(per[c], o)
				prev = done
			}
		}(c)
	}
	wg.Wait()
	var out []outcome
	for _, o := range per {
		out = append(out, o...)
	}
	return out
}

// warm runs the first sc.warmup trace queries serially and fails on any
// error, so a broken stack stops the run during set-up.
func warm(st stack, sc scale) error {
	for i := 0; i < sc.warmup; i++ {
		if o := st.send(i % sc.traceLen); !o.ok {
			return fmt.Errorf("warm-up query %d failed", i)
		}
	}
	return nil
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
