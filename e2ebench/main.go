// Command e2ebench is the wall-clock end-to-end benchmark of the LifeRaft
// serving stack. It wires the stack the way liferaftd does, in one
// process, drives one named workload against it for a fixed time, checks
// every completed query against an independent oracle, and prints one JSON
// line of metrics:
//
//	bash e2ebench/run.sh --workload gateway_mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs an untraced half and a traced half and reports the per-layer
// metrics, derived from spans the benchmark records around its calls into
// each layer, plus the tracing overhead. README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the stack is built; setup_s is the median
	// and only the last stack is measured.
	setups int
	// out holds the segment stores and the span dumps.
	out string
	// scale overrides the workload's full-size parameters (self-test).
	scale *scale
	// corruptReference flips one oracle digest, so a correct program must
	// fail the result check (self-test).
	corruptReference bool
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: gateway_mix or node_uniform_disk")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (the same seed gives the same queries)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics of an untraced run; 1 = per-layer metrics of a traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for segment stores and span dumps")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: --trace must be 0 or 1, got %d\n", traceFlag)
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.setups = 3
	// The harness is sized for two cores: more Ps than that would change
	// the contention the numbers describe.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: result check failed")
		os.Exit(1)
	}
}

func printResult(w io.Writer, res *result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run sets the stack up cfg.setups times, measures the last one, checks
// its results and returns the metrics. Progress goes to logw.
func run(cfg config, logw io.Writer) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (gateway_mix, node_uniform_disk)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	sc := wl.scale
	if cfg.scale != nil {
		sc = *cfg.scale
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}

	// The inputs are made once; every set-up builds the stack afresh.
	qs, err := genTrace(cfg.seed, sc, wl.hotFraction, wl.volume)
	if err != nil {
		return nil, err
	}
	var st stack
	setupTimes := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			runtime.GC()
		}
		start := time.Now()
		s, err := wl.setup(cfg, sc, qs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := warm(s, sc); err != nil {
			s.close()
			return nil, err
		}
		st = s
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer st.close()
	fmt.Fprintf(logw, "e2ebench: %s seed %d: set-up %v s\n", cfg.workload, cfg.seed, setupTimes)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	drv := loadGen{sc: sc, st: st}
	res := &result{Metrics: make(map[string]metricValue)}
	var phases []*phase
	var plain, traced *phase
	var spans *spanRec
	if !cfg.trace {
		plain = drv.measure(dur, nil)
		phases = append(phases, plain)
	} else {
		plain = drv.measure(dur/2, nil)
		spans = newSpanRec()
		traced = drv.measure(dur/2, spans)
		phases = append(phases, plain, traced)
	}

	// Check every completed query before any metric is taken: a wrong
	// result is a failed query.
	ref := newOracle(st, cfg.corruptReference)
	res.Correct = true
	for _, p := range phases {
		mismatched := ref.check(p.outcomes)
		if mismatched > 0 {
			res.Correct = false
		}
		attempted, failed := p.counts()
		res.Attempted += attempted
		res.Failed += failed
		fmt.Fprintf(logw, "e2ebench: %d attempted, %d failed (%d wrong results), %.1f completed/s\n",
			attempted, failed, mismatched, p.qps())
	}
	if !cfg.trace {
		endToEnd(res, plain, median(setupTimes))
	} else {
		if err := spans.dump(spanPath(cfg)); err != nil {
			return nil, err
		}
		perLayer(res, st, wl, sc, plain, traced, spans)
		// The TCP client's cancellation race, which the timed phases
		// keep clear of (see noCancel), measured after them.
		var ppm float64
		if g, ok := st.(*gatewayStack); ok {
			if ppm, err = g.probeCancelWatch(min(probeTime, dur/10), logw); err != nil {
				return nil, err
			}
		}
		res.set("federation.cancel_watch_fail_ppm", ppm, "ppm")
	}
	return res, nil
}

// probeTime is how long a traced run probes the cancellation race.
const probeTime = 2 * time.Second

func spanPath(cfg config) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.out, cfg.workload, cfg.seed)
}
