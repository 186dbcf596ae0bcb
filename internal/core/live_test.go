package core

import (
	"sync"
	"testing"
	"time"

	"liferaft/internal/metric"
	"liferaft/internal/simclock"
	"liferaft/internal/workload"
)

// TestLiveConcurrentSubmitters hammers the live engine from many
// goroutines (run under -race in CI) and checks exactly-once delivery.
func TestLiveConcurrentSubmitters(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	perWorker := len(jobs) / workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				job := jobs[w*perWorker+i]
				ch, err := l.Submit(job)
				if err != nil {
					errs[w] = err
					return
				}
				r, ok := <-ch
				if !ok || r.QueryID != job.ID {
					errs[w] = ErrClosed
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stats, ok := l.Stats()
	if !ok || stats.Completed != workers*perWorker {
		t.Errorf("stats = %+v, ok=%v", stats, ok)
	}
}

// TestLiveCloseWaitsForDrain: queries submitted before Close must all
// complete even when Close races the scheduler.
func TestLiveCloseWaitsForDrain(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan Result
	for _, j := range jobs[:20] {
		ch, err := l.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case _, ok := <-ch:
			if !ok {
				t.Fatalf("channel %d closed without a result", i)
			}
		default:
			t.Fatalf("channel %d empty after Close returned", i)
		}
	}
}

// TestLiveEmptyJobCompletesImmediately covers the no-overlap admit path.
func TestLiveEmptyJobCompletesImmediately(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch, err := l.Submit(Job{ID: 424242})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.QueryID != 424242 || r.Assignments != 0 {
			t.Errorf("result = %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("empty job never completed")
	}
}

func TestLiveStatsBeforeClose(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Stats(); ok {
		t.Error("stats should be unavailable before Close")
	}
	l.Close()
}

func TestLiveRejectsBadConfig(t *testing.T) {
	if _, err := NewLive(Config{}); err == nil {
		t.Error("NewLive with empty config should fail")
	}
}

// TestTunerEndToEnd drives the full §4 adaptive loop on real engine runs:
// measure curves at two saturations, register them, and check that the
// selected α is (weakly) larger at the lower saturation.
func TestTunerEndToEnd(t *testing.T) {
	part, jobs := fixture(t)
	sub := jobs[:60]
	measure := func(rate float64) ([]float64, error) {
		offs := workload.Poisson{RatePerSec: rate}.Offsets(len(sub), 11)
		curve, err := BuildCurve(nil, func(alpha float64) ([]Result, RunStats, error) {
			cfg, _ := NewVirtual(part, alpha, false)
			return Run(cfg, sub, offs)
		})
		if err != nil {
			return nil, err
		}
		tn, err := NewTuner(0.2)
		if err != nil {
			return nil, err
		}
		if err := tn.AddCurve(rate, curve); err != nil {
			return nil, err
		}
		a, err := tn.Alpha(rate)
		return []float64{a}, err
	}
	low, err := measure(0.5)
	if err != nil {
		t.Fatal(err)
	}
	high, err := measure(50)
	if err != nil {
		t.Fatal(err)
	}
	if low[0] < high[0] {
		t.Errorf("low-saturation α %v should be >= high-saturation α %v", low[0], high[0])
	}
}

// TestAdaptiveRetunes drives the full §4 closed loop: a live engine whose
// α follows the saturation estimate through the tuner's curves.
func TestAdaptiveRetunes(t *testing.T) {
	part, jobs := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := NewTuner(0.2)
	// Curves shaped like the paper's: slow arrivals -> α=1, fast -> α=0.25.
	tn.AddCurve(0.1, metric.Curve{
		{Alpha: 0.25, Throughput: 0.10, RespTime: 50},
		{Alpha: 1.0, Throughput: 0.10, RespTime: 20},
	})
	tn.AddCurve(10, metric.Curve{
		{Alpha: 0.25, Throughput: 3.0, RespTime: 300},
		{Alpha: 1.0, Throughput: 1.5, RespTime: 280},
	})
	est, _ := NewSaturationEstimator(30 * time.Second)
	ad, err := NewAdaptive(l, tn, est, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	defer ad.Close()

	// Slow phase, then a burst: the estimator must cross the dead band
	// and trigger at least two retunes (initial + shift).
	clk := cfg.Clock.(*simclock.Virtual)
	var chans []<-chan Result
	for i := 0; i < 10; i++ {
		ch, err := ad.Submit(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		clk.Advance(10 * time.Second) // 0.1 q/s
	}
	for i := 10; i < 40; i++ {
		ch, err := ad.Submit(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		clk.Advance(100 * time.Millisecond) // 10 q/s burst
	}
	for _, ch := range chans {
		if _, ok := <-ch; !ok {
			t.Fatal("dropped query")
		}
	}
	if ad.Retunes() < 2 {
		t.Errorf("retunes = %d, want >= 2 (slow phase then burst)", ad.Retunes())
	}
}

func TestAdaptiveValidation(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, _ := NewLive(cfg)
	defer l.Close()
	tn, _ := NewTuner(0.2)
	est, _ := NewSaturationEstimator(time.Minute)
	if _, err := NewAdaptive(nil, tn, est, 0.25); err == nil {
		t.Error("nil live should fail")
	}
	if _, err := NewAdaptive(l, nil, est, 0.25); err == nil {
		t.Error("nil tuner should fail")
	}
	if _, err := NewAdaptive(l, tn, nil, 0.25); err == nil {
		t.Error("nil estimator should fail")
	}
	if _, err := NewAdaptive(l, tn, est, 0); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestSetAlphaClampsAndRejectsClosed(t *testing.T) {
	part, _ := fixture(t)
	cfg, _ := NewVirtual(part, 0, false)
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetAlpha(2); err != nil { // clamped, accepted
		t.Fatal(err)
	}
	if err := l.SetAlpha(-1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.SetAlpha(0.5); err != ErrClosed {
		t.Errorf("SetAlpha after Close = %v", err)
	}
}
