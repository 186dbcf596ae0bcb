package federation

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// scriptedSite is a Transport whose answers are a pure function of the
// request (the shipped objects' IDs and magnitudes), so two plan
// executions over it see identical responses. Its
// matches come from a small pool of local IDs, so several shipped
// objects share a counterpart (duplicate frontier IDs at the next hop)
// and one shipped object may get several counterparts.
type scriptedSite struct {
	name    string
	extract []Object
	pool    int  // distinct local IDs a match draws from
	maxPer  int  // counterparts per shipped object, drawn from [0, maxPer]
	noPairs bool // every match returns no pairs
}

func (s *scriptedSite) Archive() (string, error) { return s.name, nil }

func (s *scriptedSite) Extract(ExtractRequest) (ExtractResponse, error) {
	return ExtractResponse{Objects: append([]Object(nil), s.extract...)}, nil
}

func (s *scriptedSite) Match(req MatchRequest) (MatchResponse, error) {
	h := fnv.New64a()
	fmt.Fprint(h, s.name)
	for _, o := range req.Objects {
		fmt.Fprint(h, ",", o.ID, ":", o.Mag) // which of several same-ID objects was shipped shows
	}
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	resp := MatchResponse{Elapsed: time.Duration(len(req.Objects)) * time.Microsecond}
	if s.noPairs {
		return resp, nil
	}
	for _, o := range req.Objects {
		for n := rng.Intn(s.maxPer + 1); n > 0; n-- {
			id := uint64(1000 + rng.Intn(s.pool))
			local := Object{ID: id, HTMID: id * 7, X: float64(id), Mag: float64(id % 13)}
			resp.Pairs = append(resp.Pairs, MatchPair{Local: local, Remote: o})
		}
	}
	rng.Shuffle(len(resp.Pairs), func(i, j int) { resp.Pairs[i], resp.Pairs[j] = resp.Pairs[j], resp.Pairs[i] })
	return resp, nil
}

// mapJoinExecute is the portal's plan with the map-based join it used
// before the flat tuple join: one Row map per live tuple, copied on
// every hop, the frontier deduplicated through a map. It is the oracle
// the flat join must agree with, row for row.
func mapJoinExecute(p *Portal, q Query) (*ResultSet, error) {
	site, err := p.site(q.Archives[0])
	if err != nil {
		return nil, err
	}
	ext, err := site.Extract(ExtractRequest{
		QueryID: q.ID, RA: q.RA, Dec: q.Dec, RadiusDeg: q.RadiusDeg,
		Selectivity: q.Selectivity, Seed: q.Seed,
	})
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{HopElapsed: make(map[string]time.Duration), Shipped: make(map[string]int)}
	rows := make([]Row, len(ext.Objects))
	frontier := make([]Object, len(ext.Objects))
	for i, o := range ext.Objects {
		rows[i] = Row{Objects: map[string]Object{q.Archives[0]: o}}
		frontier[i] = o
	}
	for _, archive := range q.Archives[1:] {
		if len(rows) == 0 {
			break
		}
		site, err := p.site(archive)
		if err != nil {
			return nil, err
		}
		uniq := make(map[uint64]Object, len(frontier))
		for _, o := range frontier {
			uniq[o.ID] = o
		}
		shipped := make([]Object, 0, len(uniq))
		for _, o := range uniq {
			shipped = append(shipped, o)
		}
		sort.Slice(shipped, func(i, j int) bool { return shipped[i].ID < shipped[j].ID })
		rs.Shipped[archive] = len(shipped)
		resp, err := site.Match(MatchRequest{
			QueryID: q.ID, MatchRadiusArcsec: q.MatchRadiusArcsec,
			MagLo: q.MagLo, MagHi: q.MagHi, Objects: shipped, Tenant: q.Tenant,
		})
		if err != nil {
			return nil, err
		}
		rs.HopElapsed[archive] = resp.Elapsed
		byRemote := make(map[uint64][]Object)
		for _, pr := range resp.Pairs {
			byRemote[pr.Remote.ID] = append(byRemote[pr.Remote.ID], pr.Local)
		}
		var nextRows []Row
		var nextFrontier []Object
		for i, row := range rows {
			for _, local := range byRemote[frontier[i].ID] {
				nr := Row{Objects: make(map[string]Object, len(row.Objects)+1)}
				for k, v := range row.Objects {
					nr.Objects[k] = v
				}
				nr.Objects[archive] = local
				nextRows = append(nextRows, nr)
				nextFrontier = append(nextFrontier, local)
			}
		}
		rows, frontier = nextRows, nextFrontier
	}
	rs.Rows = rows
	return rs, nil
}

// TestFlatJoinMatchesMapJoin: on randomized 2- and 3-archive plans the
// portal returns exactly what the map-based join returns — the same
// rows in the same order (nil versus empty included), the same shipped
// counts and the same hop times.
func TestFlatJoinMatchesMapJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extraction := func(n, idRange int) []Object {
		out := make([]Object, n)
		for i := range out {
			id := uint64(rng.Intn(idRange))
			out[i] = Object{ID: id, HTMID: id, Y: float64(id), Mag: float64(i)}
		}
		return out
	}
	type plan struct {
		name  string
		sites []*scriptedSite
	}
	plans := []plan{
		{"empty-extraction", []*scriptedSite{{name: "a"}, {name: "b", pool: 5, maxPer: 2}}},
		{"no-pairs-first-hop", []*scriptedSite{
			{name: "a", extract: extraction(20, 1000)}, {name: "b", noPairs: true}, {name: "c", pool: 5, maxPer: 2}}},
		{"no-pairs-last-hop", []*scriptedSite{
			{name: "a", extract: extraction(20, 1000)}, {name: "b", pool: 8, maxPer: 3}, {name: "c", noPairs: true}}},
		// Repeated extraction IDs: duplicate frontier IDs from the start.
		{"duplicate-extraction", []*scriptedSite{
			{name: "a", extract: extraction(60, 10)}, {name: "b", pool: 4, maxPer: 3}}},
		{"repeated-archive", []*scriptedSite{
			{name: "a", extract: extraction(30, 500)}, {name: "b", pool: 6, maxPer: 2}, {name: "a", pool: 6, maxPer: 2}}},
	}
	for i := 0; i < 40; i++ {
		hops := 1 + i%2
		sites := []*scriptedSite{{name: "drive", extract: extraction(rng.Intn(80), 1+rng.Intn(200))}}
		for h := 0; h < hops; h++ {
			sites = append(sites, &scriptedSite{name: fmt.Sprintf("hop%d", h), pool: 1 + rng.Intn(40), maxPer: rng.Intn(4)})
		}
		plans = append(plans, plan{fmt.Sprintf("random-%d", i), sites})
	}
	rows := 0
	for qid, pl := range plans {
		t.Run(pl.name, func(t *testing.T) {
			p := NewPortal()
			var archives []string
			for _, s := range pl.sites {
				if _, err := p.site(s.name); err != nil {
					p.Register(s.name, s)
				}
				archives = append(archives, s.name)
			}
			q := Query{ID: uint64(qid), MatchRadiusArcsec: 2, Archives: archives, Selectivity: 1}
			got, err := p.ExecuteCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mapJoinExecute(p, q)
			if err != nil {
				t.Fatal(err)
			}
			if (got.Rows == nil) != (want.Rows == nil) || len(got.Rows) != len(want.Rows) {
				t.Fatalf("rows: got %d (nil %v), want %d (nil %v)", len(got.Rows), got.Rows == nil, len(want.Rows), want.Rows == nil)
			}
			for i := range want.Rows {
				if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
					t.Fatalf("row %d: got %v, want %v", i, got.Rows[i], want.Rows[i])
				}
			}
			rows += len(got.Rows)
			if !reflect.DeepEqual(got.Shipped, want.Shipped) {
				t.Errorf("shipped: got %v, want %v", got.Shipped, want.Shipped)
			}
			if !reflect.DeepEqual(got.HopElapsed, want.HopElapsed) {
				t.Errorf("hop elapsed: got %v, want %v", got.HopElapsed, want.HopElapsed)
			}
		})
	}
	if rows == 0 {
		t.Error("fixture: no plan returned a row")
	}
}

// TestExtractRejectsInvalidRegion: a region that bounds nothing — a
// non-finite center, a radius outside (0°, 180°] or a selectivity
// outside (0, 1] — is an error over every transport, never an empty
// success or the whole archive.
func TestExtractRejectsInvalidRegion(t *testing.T) {
	f := newFixture(t)
	srv, err := Serve(f.sdss, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr().String())
	defer cli.Close()

	good := ExtractRequest{QueryID: 1, RA: 150, Dec: 20, RadiusDeg: 1, Selectivity: 0.5, Seed: 1}
	with := func(mod func(*ExtractRequest)) ExtractRequest {
		r := good
		mod(&r)
		return r
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		req  ExtractRequest
		want string
	}{
		{"nan-ra", with(func(r *ExtractRequest) { r.RA = nan }), "not finite"},
		{"inf-ra", with(func(r *ExtractRequest) { r.RA = inf }), "not finite"},
		{"nan-dec", with(func(r *ExtractRequest) { r.Dec = nan }), "not finite"},
		{"neg-inf-dec", with(func(r *ExtractRequest) { r.Dec = -inf }), "not finite"},
		{"zero-radius", with(func(r *ExtractRequest) { r.RadiusDeg = 0 }), "radius"},
		{"negative-radius", with(func(r *ExtractRequest) { r.RadiusDeg = -1 }), "radius"},
		{"nan-radius", with(func(r *ExtractRequest) { r.RadiusDeg = nan }), "radius"},
		{"inf-radius", with(func(r *ExtractRequest) { r.RadiusDeg = inf }), "radius"},
		{"radius-over-180", with(func(r *ExtractRequest) { r.RadiusDeg = 180.5 }), "radius"},
		{"zero-selectivity", with(func(r *ExtractRequest) { r.Selectivity = 0 }), "selectivity"},
		{"nan-selectivity", with(func(r *ExtractRequest) { r.Selectivity = nan }), "selectivity"},
		{"selectivity-over-1", with(func(r *ExtractRequest) { r.Selectivity = 1.5 }), "selectivity"},
	}
	for name, tr := range map[string]Transport{"inproc": InProc{f.sdss}, "tcp": cli} {
		for _, c := range cases {
			if _, err := tr.Extract(c.req); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s: err = %v, want an error naming %q", name, c.name, err, c.want)
			}
		}
		// The bounds themselves are valid, and the node keeps serving.
		for _, r := range []ExtractRequest{good, with(func(r *ExtractRequest) { r.Selectivity = 1 })} {
			resp, err := tr.Extract(r)
			if err != nil || len(resp.Objects) == 0 {
				t.Errorf("%s: valid request %+v: %d objects, %v", name, r, len(resp.Objects), err)
			}
		}
		whole := with(func(r *ExtractRequest) { r.RadiusDeg, r.Selectivity = 180, 0.001 })
		if _, err := tr.Extract(whole); err != nil {
			t.Errorf("%s: radius 180: %v", name, err)
		}
	}
}
