package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"liferaft/internal/catalog"
	"liferaft/internal/federation"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/skyql"
	"liferaft/internal/workload"
	"liferaft/internal/xmatch"
)

// baseSeed is liferaftd's default -seed: every archive derives from the
// same base survey, so the archives are correlated and cross-matches
// find counterparts.
const baseSeed = 42

// derivedParams mirrors liferaftd's per-archive derivation.
var derivedParams = map[string]struct {
	seedOffset int64
	fraction   float64
}{
	"twomass": {1, 0.8},
	"usnob":   {2, 0.7},
}

// buildCatalogs synthesizes the sdss base survey and the named derived
// archives the way liferaftd does, then materializes every trixel so no
// timed query pays for lazy synthesis.
func buildCatalogs(sc scale, derived ...string) (map[string]*catalog.Catalog, error) {
	base, err := catalog.New(catalog.Config{
		Name: "sdss", N: sc.objects, Seed: baseSeed, GenLevel: sc.genLevel, CacheTrixels: true,
	})
	if err != nil {
		return nil, err
	}
	cats := map[string]*catalog.Catalog{"sdss": base}
	for _, name := range derived {
		p := derivedParams[name]
		c, err := catalog.NewDerived(base, catalog.DerivedConfig{
			Name: name, Seed: baseSeed + p.seedOffset, Fraction: p.fraction,
			JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: true,
		})
		if err != nil {
			return nil, err
		}
		cats[name] = c
	}
	for _, c := range cats {
		for pos := uint64(0); pos < htm.NumTrixels(sc.genLevel); pos++ {
			c.TrixelObjects(pos)
		}
	}
	return cats, nil
}

// epochLen is the length of one hotspot epoch of a trace.
const epochLen = 250

// genTrace generates the workload's query trace from the run's seed.
//
// The trace is a sequence of epochs, each epochLen queries of
// workload.Generate's hotspot trace under its own seed drawn from the
// run's (hotFraction 0 makes the sky uniform). One generated trace puts
// 70% of its queries on five hotspots; how much work a seed's five cost
// (how many buckets they span, how well their queries batch) moves the
// per-query work by over ±10% between seeds, which would swamp the
// run-to-run noise the benchmark must resolve. Epochs average over many
// hotspot sets in one run and keep the temporal clustering inside each.
//
// The catalogs also apportion the same object count to every
// generation-level trixel, whatever its area, so the sky is denser where
// trixels are small. Scaling every SAMPLE fraction by one factor per
// seed (the configuration's expected volume over the catalog's estimate
// for this trace) keeps each seed's regions, hotspots and order, and
// takes the seed out of the total shipped volume. volume scales that
// expectation: node_uniform_disk ships a quarter of it, so that its
// queries, whose wall time is mostly modelled sleep per shipped object,
// complete fast enough for a steady p99 in one run.
func genTrace(seed int64, sc scale, hotFraction, volume float64) ([]workload.Query, error) {
	rng := rand.New(rand.NewSource(seed))
	var qs []workload.Query
	var tc workload.TraceConfig
	for len(qs) < sc.traceLen {
		tc = workload.DefaultTraceConfig(rng.Int63())
		tc.NumQueries = min(epochLen, sc.traceLen-len(qs))
		tc.HotFraction = hotFraction
		tr, err := workload.Generate(tc)
		if err != nil {
			return nil, err
		}
		qs = append(qs, tr.Queries...)
	}
	// Only the trixel counts matter here; nothing is materialized.
	cat, err := catalog.New(catalog.Config{Name: "sdss", N: sc.objects, Seed: baseSeed, GenLevel: sc.genLevel})
	if err != nil {
		return nil, err
	}
	var est float64
	for _, q := range qs {
		est += float64(cat.EstimateInCap(q.Cap())) * q.Selectivity
	}
	want := float64(len(qs)*sc.objects) * meanCapFraction(tc) * logUniformMean(tc.MinSelectivity, tc.MaxSelectivity)
	f := volume * want / est
	for i := range qs {
		qs[i].Selectivity = min(1, qs[i].Selectivity*f)
	}
	return qs, nil
}

// meanCapFraction is the expected share of the sphere inside a query
// region, whose radius is log-uniform between the configured bounds.
func meanCapFraction(tc workload.TraceConfig) float64 {
	const steps = 4096
	lo, hi := math.Log(tc.MinRadiusDeg), math.Log(tc.MaxRadiusDeg)
	var sum float64
	for i := 0; i < steps; i++ {
		r := geom.Radians(math.Exp(lo + (hi-lo)*(float64(i)+0.5)/steps))
		sum += (1 - math.Cos(r)) / 2
	}
	return sum / steps
}

// logUniformMean is the mean of a log-uniform variable on [lo, hi].
func logUniformMean(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return (hi - lo) / math.Log(hi/lo)
}

// aliases are the SkyQL aliases of the three archives.
var aliases = map[string]string{"t": "twomass", "s": "sdss", "u": "usnob"}

// renderSkyQL writes trace query q as SkyQL over the plan's aliases (the
// first alias drives the left-deep plan). Numbers are printed exactly,
// so parsing recovers the trace's values.
func renderSkyQL(q workload.Query, matchArcsec float64, plan []string) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	from := make([]string, len(plan))
	for i, a := range plan {
		from[i] = aliases[a] + " " + a
	}
	ra, dec := geom.ToRaDec(q.Center)
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT * FROM %s WHERE XMATCH(%s) < %s AND REGION(CIRCLE, %s, %s, %s) AND SAMPLE(%s)",
		strings.Join(from, ", "), strings.Join(plan, ", "), f(matchArcsec),
		f(ra), f(dec), f(geom.Degrees(q.RadiusRad)), f(q.Selectivity))
	if q.MagLo != 0 || q.MagHi != 0 {
		fmt.Fprintf(&b, " AND s.mag BETWEEN %s AND %s", f(q.MagLo), f(q.MagHi))
	}
	return b.String()
}

// compile turns SkyQL into the federation query the gateway executes,
// with the trace index as the query ID.
func compile(text string, idx int) (federation.Query, error) {
	q, err := skyql.Parse(text)
	if err != nil {
		return federation.Query{}, err
	}
	return skyql.Compile(q, uint64(idx), 0)
}

// keep is the driving archive's deterministic Bernoulli subsampling
// (splitmix64 over seed, query and object), restated so the oracle does
// not run the program's extraction code.
func keep(seed int64, qid, oid uint64, p float64) bool {
	x := uint64(seed) ^ qid*0x9E3779B97F4A7C15 ^ oid*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < p
}

// extractRef is the driving archive's shipped object list for fq.
func extractRef(cat *catalog.Catalog, fq federation.Query) []catalog.Object {
	cp := geom.NewCap(geom.FromRaDec(fq.RA, fq.Dec), geom.Radians(fq.RadiusDeg))
	var out []catalog.Object
	for _, o := range cat.InCap(cp) {
		if keep(fq.Seed, fq.ID, o.ID, fq.Selectivity) {
			out = append(out, o)
		}
	}
	return out
}

// matchRef is the brute-force cross-match of one shipped object against
// an archive: every local object within radius (and inside the magnitude
// window, if any). Candidates come from a cap twice the radius, so the
// exact test is xmatch.BruteForce's alone.
func matchRef(cat *catalog.Catalog, s catalog.Object, radius, magLo, magHi float64) []catalog.Object {
	cands := cat.InCap(geom.NewCap(s.Pos, 2*radius))
	var preds map[uint64]xmatch.Predicate
	if magLo != 0 || magHi != 0 {
		preds = map[uint64]xmatch.Predicate{0: xmatch.MagnitudeWindow(magLo, magHi)}
	}
	pairs := xmatch.BruteForce(cands, []xmatch.WorkloadObject{{Obj: s, Radius: radius}}, preds)
	out := make([]catalog.Object, len(pairs))
	for i, p := range pairs {
		out[i] = p.Local
	}
	return out
}

// planRef replays fq's serial left-deep plan against the catalogs: the
// rows the portal must return, as an answer.
func planRef(cats map[string]*catalog.Catalog, fq federation.Query) answer {
	type row struct {
		h     uint64
		front catalog.Object
	}
	var rows []row
	for _, o := range extractRef(cats[fq.Archives[0]], fq) {
		rows = append(rows, row{idHash(fq.Archives[0], o.ID), o})
	}
	radius := geom.ArcsecToRad(fq.MatchRadiusArcsec)
	for _, a := range fq.Archives[1:] {
		memo := make(map[uint64][]catalog.Object)
		var next []row
		for _, r := range rows {
			locals, ok := memo[r.front.ID]
			if !ok {
				locals = matchRef(cats[a], r.front, radius, fq.MagLo, fq.MagHi)
				memo[r.front.ID] = locals
			}
			for _, l := range locals {
				next = append(next, row{r.h + idHash(a, l.ID), l})
			}
		}
		rows = next
	}
	ans := answer{count: len(rows)}
	for _, r := range rows {
		ans.digest += mix(r.h)
	}
	return ans
}

// pairsRef is the cross-match one node must return for the objects fq's
// driving archive ships to it.
func pairsRef(driving, local *catalog.Catalog, fq federation.Query) answer {
	radius := geom.ArcsecToRad(fq.MatchRadiusArcsec)
	var ans answer
	for _, s := range extractRef(driving, fq) {
		for _, l := range matchRef(local, s, radius, fq.MagLo, fq.MagHi) {
			ans.count++
			ans.digest += pairHash(l.ID, s.ID)
		}
	}
	return ans
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// idHash identifies one archive's object within a row. A row hashes to
// the sum of its members, so map order does not matter; an answer's
// digest sums mixed row (or pair) hashes, so row order does not either.
func idHash(archive string, id uint64) uint64 {
	// FNV-1a of the name, inline: the client hashes every object of
	// every reply, and hash/fnv would allocate each time.
	h := uint64(14695981039346656037)
	for i := 0; i < len(archive); i++ {
		h = (h ^ uint64(archive[i])) * 1099511628211
	}
	return mix(h ^ mix(id))
}

func pairHash(local, remote uint64) uint64 { return mix(mix(local) ^ remote) }

// oracle checks outcomes against the stack's reference answers.
type oracle struct {
	st      stack
	corrupt bool
	answers map[int]answer
}

func newOracle(st stack, corrupt bool) *oracle {
	return &oracle{st: st, corrupt: corrupt, answers: make(map[int]answer)}
}

// check compares every completed outcome with its reference answer,
// marks the wrong ones failed, and returns how many were wrong.
func (o *oracle) check(outs []outcome) int {
	var todo []int
	for _, out := range outs {
		if _, ok := o.answers[out.idx]; out.ok && !ok {
			o.answers[out.idx] = answer{}
			todo = append(todo, out.idx)
		}
	}
	// The references are independent; compute them on every core.
	res := make([]answer, len(todo))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				res[i] = o.st.expect(todo[i])
			}
		}(w)
	}
	wg.Wait()
	for i, idx := range todo {
		o.answers[idx] = res[i]
	}
	if o.corrupt && len(todo) > 0 {
		a := o.answers[todo[0]]
		a.digest ^= 1
		o.answers[todo[0]] = a
		o.corrupt = false
	}
	wrong := 0
	for i := range outs {
		out := &outs[i]
		if out.ok && out.answer != o.answers[out.idx] {
			out.ok = false
			wrong++
		}
	}
	return wrong
}
