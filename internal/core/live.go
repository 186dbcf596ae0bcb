package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"liferaft/internal/shard"
	"liferaft/internal/simclock"
)

// Live runs the LifeRaft scheduler as a long-lived service: queries are
// submitted concurrently and results delivered on per-query channels.
// Each shard's engine owns its workload manager exclusively and services
// one bucket at a time, exactly as the paper's architecture prescribes
// ("buckets are read from disk by scheduler one at a time", §3); Submit
// never blocks on in-progress bucket services.
//
// Live is a front end over one engine per shard (Config.Shards; 0 or 1
// means a single engine on the config's own clock, disk and store).
// Submit fans the query's workload objects out to the engines owning the
// buckets they overlap, and the result channel delivers the merged Result
// when the last engine finishes. Cancel and SetAlpha broadcast to every
// engine.
//
// Live is the deployment form a federation node uses (see the federation
// package); experiments use Run instead, which replays a trace against a
// virtual clock.
type Live struct {
	clock   simclock.Clock
	smap    *shard.Map
	engines []*engine
	// release closes the stores forkConfigs opened for the engines.
	release   func()
	closeOnce sync.Once
	completed atomic.Int64 // merged queries delivered
	cancelled atomic.Int64 // merged queries cancelled

	mu      sync.Mutex
	closed  bool
	stats   RunStats
	statsOK bool
}

// engine is one shard's scheduling loop and its inbox. Live sends to the
// inbox only under Live.mu while open, and closes the engine only after
// marking itself closed, so the engine needs no lock of its own.
type engine struct {
	inbox   chan submission
	closing chan struct{}
	done    chan struct{}
	clock   simclock.Clock
	// stats is written by the loop before done closes.
	stats RunStats
}

// fanIn gathers one query's per-shard results. Each engine stores its
// part; the engine delivering the last part merges them in shard order
// and completes the query, so no goroutine waits on a fan-out.
type fanIn struct {
	live      *Live
	ch        chan Result
	parts     []Result
	remaining atomic.Int32
}

// deliver stores part i's result and, once every part is in, delivers
// the merged Result.
func (f *fanIn) deliver(i int, r Result) {
	f.parts[i] = r
	if f.remaining.Add(-1) > 0 {
		return
	}
	merged := f.parts[0]
	for _, p := range f.parts[1:] {
		merged.absorb(p)
	}
	if merged.Cancelled {
		f.live.cancelled.Add(1)
	} else {
		f.live.completed.Add(1)
	}
	f.ch <- merged
	close(f.ch)
}

// waiter is an engine's handle on the query part it is servicing.
type waiter struct {
	fan  *fanIn
	part int
}

type submission struct {
	job Job
	waiter
	// setAlpha, when non-nil, is a control message instead of a query:
	// the scheduling loop updates its age bias (the §4 adaptive knob).
	setAlpha *float64
	// cancel, when non-nil, is a control message withdrawing an in-flight
	// query: its remaining workload objects are dropped from the queues
	// and its waiter receives a Result with Cancelled set. The inbox is
	// FIFO, so a cancel always follows the submission it refers to.
	cancel *uint64
}

// Clock returns the engine's time source (set by its Config).
func (l *Live) Clock() simclock.Clock { return l.clock }

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("core: live engine closed")

// NewLive starts a live engine. The returned engine must be Closed to
// release its scheduling goroutines.
func NewLive(cfg Config) (*Live, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m, err := shard.NewMap(cfg.Store.Partition(), cfg.Shards, cfg.ShardPartitioner)
	if err != nil {
		return nil, err
	}
	shardCfgs, release, err := forkConfigs(cfg, m)
	if err != nil {
		return nil, err
	}
	l := &Live{clock: cfg.Clock, smap: m, release: release}
	for _, sc := range shardCfgs {
		e, err := startEngine(sc)
		if err != nil {
			for _, started := range l.engines {
				started.close()
			}
			release()
			return nil, err
		}
		l.engines = append(l.engines, e)
	}
	return l, nil
}

// startEngine starts one shard's scheduling loop.
func startEngine(cfg Config) (*engine, error) {
	s, err := newScheduler(cfg)
	if err != nil {
		return nil, err
	}
	e := &engine{
		inbox:   make(chan submission, 1024),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		clock:   cfg.Clock,
	}
	go e.loop(cfg, s)
	return e, nil
}

// close drains the engine's queued work and waits for its loop to exit.
func (e *engine) close() {
	close(e.closing)
	<-e.done
}

// Submit enqueues a query. The returned channel delivers exactly one
// Result when the query completes, then closes: the merge of its
// engines' results, with assignments and matches summed and pairs
// concatenated in shard order.
func (l *Live) Submit(job Job) (<-chan Result, error) {
	// Keep the parent clock tracking the furthest shard clock: on a
	// virtual clock, observers of Clock() — the Adaptive saturation
	// estimator, empty-fan-out completion stamps — would otherwise see
	// time frozen at the engine start until Close.
	for _, e := range l.engines {
		simclock.Join(l.clock, e.clock.Now())
	}
	fan := l.smap.Fanout(job.Objects)
	width := 0
	for _, objs := range fan {
		if len(objs) > 0 {
			width++
		}
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	ch := make(chan Result, 1)
	if width == 0 {
		// No bucket overlaps anywhere: complete immediately.
		now := l.clock.Now()
		ch <- Result{QueryID: job.ID, Arrived: now, Completed: now}
		close(ch)
		l.completed.Add(1)
		l.mu.Unlock()
		return ch, nil
	}
	f := &fanIn{live: l, ch: ch, parts: make([]Result, width)}
	f.remaining.Store(int32(width))
	part := 0
	for s, objs := range fan {
		if len(objs) == 0 {
			continue
		}
		//lifevet:allow lockdiscipline -- each inbox send bounds in one shard step; the lock must span the fan-out so the closed check and every shard's enqueue are one atomic step against Close
		l.engines[s].inbox <- submission{
			job:    Job{ID: job.ID, Objects: objs, Pred: job.Pred, Trace: job.Trace},
			waiter: waiter{fan: f, part: part},
		}
		part++
	}
	l.mu.Unlock()
	return ch, nil
}

// SubmitCtx is Submit with cancellation: when ctx expires before the query
// completes, the query is cancelled — its remaining workload objects are
// dropped from the queues so an abandoned query stops consuming workload
// slots — and the channel delivers a Result with Cancelled set (carrying
// the partial work done before the cancel). A ctx that can never be
// cancelled makes SubmitCtx identical to Submit.
func (l *Live) SubmitCtx(ctx context.Context, job Job) (<-chan Result, error) {
	inner, err := l.Submit(job)
	if err != nil {
		return nil, err
	}
	if ctx == nil || ctx.Done() == nil {
		return inner, nil
	}
	out := make(chan Result, 1)
	go func() {
		defer close(out)
		select {
		case r, ok := <-inner:
			if ok {
				out <- r
			}
		case <-ctx.Done():
			// Best-effort: if the engine is closing, the drain below
			// still delivers the (uncancelled) result.
			l.Cancel(job.ID)
			if r, ok := <-inner; ok {
				out <- r
			}
		}
	}()
	return out, nil
}

// Cancel withdraws an in-flight query by ID: its remaining workload
// objects are dropped from the queues and its result channel delivers a
// Result with Cancelled set. Cancelling an unknown or already completed
// query is a no-op. The cancel is broadcast to every shard; shards that
// already finished their part ignore it, and the merged result is marked
// Cancelled if any shard cancelled.
func (l *Live) Cancel(id uint64) error {
	return l.broadcast(submission{cancel: &id})
}

// SetAlpha changes the engine's age bias for all subsequent scheduling
// decisions (clamped to [0, 1]). This is the knob the paper's §4 adaptive
// tuning turns as workload saturation changes; see Adaptive for the
// closed loop.
func (l *Live) SetAlpha(alpha float64) error {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return l.broadcast(submission{setAlpha: &alpha})
}

// broadcast sends a control message to every engine.
func (l *Live) broadcast(sub submission) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for _, e := range l.engines {
		//lifevet:allow lockdiscipline -- the shard's inbox send bounds in one shard step; the parent lock spans the broadcast so a concurrent Close cannot interleave and every shard sees the same control ordering
		e.inbox <- sub
	}
	return nil
}

// Close stops accepting queries, waits for all submitted queries to
// complete, and shuts the engines down. It is idempotent.
func (l *Live) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.closeOnce.Do(func() {
		// Engines deliver every part before their loops exit, so every
		// merged result is out once they are closed.
		for _, e := range l.engines {
			e.close()
		}
		stats := mergeShardStats(l.smap, func(s int) (RunStats, int) {
			st := l.engines[s].stats
			return st, st.Completed
		})
		// On a virtual parent clock, adopt the latest shard clock.
		for _, e := range l.engines {
			simclock.Join(l.clock, e.clock.Now())
		}
		l.release()
		stats.Completed = int(l.completed.Load())
		stats.Cancelled = int(l.cancelled.Load())
		l.mu.Lock()
		l.stats = stats
		l.statsOK = true
		l.mu.Unlock()
	})
	return nil
}

// Stats returns the run statistics accumulated up to Close. It is only
// valid after Close returns.
func (l *Live) Stats() (RunStats, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats, l.statsOK
}

func (e *engine) loop(cfg Config, s *scheduler) {
	defer close(e.done)
	start := cfg.Clock.Now()
	waiters := make(map[uint64]waiter)
	completed := 0

	deliver := func(rs []Result) {
		for _, r := range rs {
			if !r.Cancelled {
				completed++
				if s.obs != nil {
					s.obs.completed.Inc()
				}
			}
			if w, ok := waiters[r.QueryID]; ok {
				delete(waiters, r.QueryID)
				w.fan.deliver(w.part, r)
			}
		}
		if s.obs != nil && len(rs) > 0 {
			if el := cfg.Clock.Now().Sub(start).Seconds(); el > 0 {
				s.obs.vqps.Set(float64(completed) / el)
			}
		}
	}
	admit := func(sub submission) {
		if sub.setAlpha != nil {
			s.cfg.Alpha = *sub.setAlpha
			return
		}
		if sub.cancel != nil {
			if r := s.cancel(*sub.cancel, cfg.Clock.Now()); r != nil {
				deliver([]Result{*r})
			}
			return
		}
		waiters[sub.job.ID] = sub.waiter
		if r := s.admit(sub.job, cfg.Clock.Now()); r != nil {
			deliver([]Result{*r})
		}
	}
	drainInbox := func() {
		for {
			select {
			case sub := <-e.inbox:
				admit(sub)
			default:
				return
			}
		}
	}

	closing := false
	for {
		drainInbox()
		if !s.pendingWork() {
			if closing {
				// Definitive drain check: nothing pending and the
				// inbox is empty after the closing signal.
				select {
				case sub := <-e.inbox:
					admit(sub)
					continue
				default:
				}
				break
			}
			select {
			case sub := <-e.inbox:
				admit(sub)
			case <-e.closing:
				closing = true
			}
			continue
		}
		// step's slice aliases scheduler scratch (valid until the next
		// step); deliver sends the Results by value before then.
		done, _ := s.step(cfg.Clock.Now())
		deliver(done)
		if !closing {
			select {
			case <-e.closing:
				closing = true
			default:
			}
		}
	}
	e.stats = s.finalize(cfg.Clock.Now().Sub(start), completed)
}
