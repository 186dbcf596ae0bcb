package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"liferaft/internal/metric"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// readChars is the bytes the process has read through read(2)-family
// calls (/proc/self/io rchar); 0 where the kernel does not expose it.
func readChars() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// promSnap is a scrape of a metric registry: series key (name plus
// label set, as exposed) to value.
type promSnap map[string]float64

// scrape reads reg through its Prometheus text exposition, the same view
// an operator's scraper gets.
func scrape(reg *metric.Registry) promSnap {
	snap := promSnap{}
	if reg == nil {
		return snap
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return snap
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		keyEnd := strings.IndexByte(line, ' ')
		if open := strings.IndexByte(line, '{'); open >= 0 && open < keyEnd {
			keyEnd = strings.IndexByte(line, '}') + 1
		}
		if keyEnd <= 0 || keyEnd >= len(line) {
			continue
		}
		fields := strings.Fields(line[keyEnd:])
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			snap[line[:keyEnd]] = v
		}
	}
	return snap
}

// sum adds the series of metric name whose labels contain every one of
// the given `k="v"` matchers.
func (s promSnap) sum(name string, matchers ...string) float64 {
	var total float64
	for key, v := range s {
		rest, ok := strings.CutPrefix(key, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		all := true
		for _, m := range matchers {
			if !strings.Contains(rest, m) {
				all = false
				break
			}
		}
		if all {
			total += v
		}
	}
	return total
}

// delta is after-before of sum over one phase.
func (p *phase) delta(name string, matchers ...string) float64 {
	return p.after.sum(name, matchers...) - p.before.sum(name, matchers...)
}
