package main

import (
	"sort"
	"time"
)

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// endToEnd reports what a user of the stack sees, from an untraced phase.
// The rates and latencies are medians over the phase's windows.
func endToEnd(r *result, p *phase, setupS float64) {
	var qps, p50, p99, cpu, allocs, allocKB []float64
	for _, w := range p.windows() {
		done := float64(w.completed())
		lat := w.latenciesMs()
		secs := (w.samples[1].at - w.samples[0].at).Seconds()
		qps = append(qps, done/secs)
		p50 = append(p50, percentile(lat, 0.50))
		p99 = append(p99, percentile(lat, 0.99))
		cpu = append(cpu, float64(w.samples[1].cpu-w.samples[0].cpu)/float64(time.Millisecond)/done)
		allocs = append(allocs, float64(w.samples[1].mallocs-w.samples[0].mallocs)/done)
		allocKB = append(allocKB, float64(w.samples[1].allocBytes-w.samples[0].allocBytes)/1024/done)
	}
	attempted, _ := p.counts()
	r.set("qps", median(qps), "1/s")
	r.set("p50_ms", median(p50), "ms")
	r.set("p99_ms", median(p99), "ms")
	r.set("ok_rate", float64(p.completed())/float64(attempted), "ratio")
	r.set("cpu_ms_per_query", median(cpu), "ms")
	r.set("allocs_per_query", median(allocs), "count")
	r.set("alloc_kb_per_query", median(allocKB), "KiB")
	r.set("rss_mb", peakRSSMiB(), "MiB")
	r.set("setup_s", setupS, "s")
}

// perLayer attributes a traced phase's time to the layers, from the
// benchmark's spans and the counters the program exports, and reports
// the tracing overhead against the untraced phase before it. A layer the
// workload does not exercise reads 0.
func perLayer(r *result, st stack, wl traffic, sc scale, plain, traced *phase, rec *spanRec) {
	spans := rec.finished()
	done := float64(traced.completed())
	attempted, failed := traced.counts()

	// server: the gateway round trip around Exec.
	var httpSelf, respBytes, rejected, clients float64
	for _, s := range spans {
		if s.Name == "client" {
			clients++
			httpSelf += float64(s.Self)
			respBytes += float64(s.N)
		}
	}
	for _, o := range traced.outcomes {
		if o.rejected {
			rejected++
		}
	}
	r.set("server.http_us", us(httpSelf, clients), "us")
	r.set("server.response_kb", ratio(respBytes/1024, clients), "KiB")
	r.set("server.rejected", rejected, "count")
	r.set("server.queue_wait_ms", 1e3*ratio(traced.delta("liferaft_queue_wait_seconds_sum"),
		traced.delta("liferaft_queue_wait_seconds_count")), "ms")
	r.set("error_rate", float64(failed)/float64(attempted), "ratio")

	// skyql and federation.
	setup := st.setupLayers()
	compile := meanDur(spans, "skyql.compile", func(s span) int64 { return s.dur() })
	extract := meanDur(spans, "federation.extract", func(s span) int64 { return s.dur() })
	if compile == 0 && extract == 0 {
		compile, extract = setup.compileUs, setup.extractUs
	}
	r.set("skyql.compile_us", compile, "us")
	r.set("federation.execute_us", meanDur(spans, "federation.execute", func(s span) int64 { return s.dur() }), "us")
	r.set("federation.extract_us", extract, "us")
	r.set("federation.match_us", meanDur(spans, "federation.match", func(s span) int64 { return s.dur() }), "us")
	r.set("federation.plan_us", meanDur(spans, "federation.execute", func(s span) int64 { return s.Self }), "us")
	var wire, hops float64
	var node []float64
	for _, s := range spans {
		if s.Name != "federation.match" {
			continue
		}
		node = append(node, float64(s.Inner)/1e3)
		if s.Remote {
			wire += float64(s.Self)
			hops++
		}
	}
	sort.Float64s(node)
	r.set("federation.wire_us", us(wire, hops), "us")
	r.set("federation.node_us_p50", zeroIfEmpty(node, 0.50), "us")
	r.set("federation.node_us_p99", zeroIfEmpty(node, 0.99), "us")
	shipped, rows := shapeCounts(spans, traced.outcomes, min(shapeQueries, sc.traceLen))
	r.set("federation.shipped_per_hop", shipped, "count")
	r.set("federation.rows_per_query", rows, "count")

	// core, from the measured node's engine metrics.
	scan := traced.delta("liferaft_engine_services_total", `strategy="scan"`)
	index := traced.delta("liferaft_engine_services_total", `strategy="index"`)
	hits, misses := traced.delta("liferaft_engine_cache_hits_total"), traced.delta("liferaft_engine_cache_misses_total")
	r.set("core.pick_us", 1e6*ratio(traced.delta("liferaft_engine_pick_seconds_sum"),
		traced.delta("liferaft_engine_pick_seconds_count")), "us")
	r.set("core.services_per_query", ratio(scan+index, traced.delta("liferaft_engine_completed_total")), "count")
	r.set("core.scan_share", ratio(scan, scan+index), "ratio")
	r.set("core.cache_hit_rate", ratio(hits, hits+misses), "ratio")

	// bucket/segment reads. read_ms is modeled time on a virtual-clock
	// node and measured time on a file-backed one; only a file-backed node
	// reads bytes.
	reads := traced.delta("liferaft_store_read_seconds_count")
	r.set("bucket.reads_per_query", reads/done, "count")
	r.set("bucket.read_ms", 1e3*ratio(traced.delta("liferaft_store_read_seconds_sum"), reads), "ms")
	var readKB float64
	if wl.fileBacked {
		readKB = float64(traced.rchar) / 1024 / done
	}
	r.set("bucket.read_kb_per_query", readKB, "KiB")

	// process.
	r.set("runtime.gc_per_kquery", 1e3*float64(traced.gcs)/done, "count")
	r.set("gen.late_ms", percentile(plain.latenessMs(), 0.99), "ms")

	// Tracing overhead: the traced phase against the untraced one.
	pl, tl := plain.latenciesMs(), traced.latenciesMs()
	r.set("trace.overhead_p50_pct", 100*(percentile(tl, 0.5)/percentile(pl, 0.5)-1), "%")
	r.set("trace.overhead_qps_pct", 100*(plain.qps()/traced.qps()-1), "%")
}

// shapeQueries is how many leading trace queries the shape counts cover;
// every full-size traced phase completes at least that many, so the
// counts repeat exactly.
const shapeQueries = 1000

// shapeCounts are the workload's shape over the first n trace queries:
// objects shipped per hop and rows (or pairs) per query. Every phase
// starts at trace query 0, so they repeat exactly once a traced phase
// has completed those n.
func shapeCounts(spans []span, outs []outcome, n int) (shippedPerHop, rowsPerQuery float64) {
	type hop struct {
		idx     int
		archive string
	}
	shipped := make(map[hop]int64)
	for _, s := range spans {
		if s.Name == "federation.match" && s.Index < n {
			shipped[hop{s.Index, s.Archive}] = s.N
		}
	}
	var objs float64
	for _, n := range shipped {
		objs += float64(n)
	}
	rows := make(map[int]int)
	for _, o := range outs {
		if o.ok && o.idx < n {
			rows[o.idx] = o.count
		}
	}
	var total float64
	for _, n := range rows {
		total += float64(n)
	}
	return ratio(objs, float64(len(shipped))), ratio(total, float64(len(rows)))
}

// meanDur is the mean of f over the named spans, in microseconds.
func meanDur(spans []span, name string, f func(span) int64) float64 {
	var sum, n float64
	for _, s := range spans {
		if s.Name == name {
			sum += float64(f(s))
			n++
		}
	}
	return us(sum, n)
}

// us converts a nanosecond total over n items to microseconds per item.
func us(totalNs, n float64) float64 { return ratio(totalNs/1e3, n) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func zeroIfEmpty(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentile(sorted, p)
}
