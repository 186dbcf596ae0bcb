package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/federation"
	"liferaft/internal/metric"
	"liferaft/internal/server"
	"liferaft/internal/simclock"
	"liferaft/internal/skyql"
	"liferaft/internal/trace"
	"liferaft/internal/workload"
)

// gatewayPlans are the cross-match plans gateway_mix cycles through, as
// SkyQL XMATCH alias orders. sdss is the driving archive of the last one
// and the in-process match hop of the others.
var gatewayPlans = [][]string{{"t", "s"}, {"u", "s"}, {"t", "s", "u"}, {"s", "t"}}

// gatewayStack is liferaftd -http: the sdss node in process behind the
// serving layer and the HTTP gateway, twomass and usnob as peers over
// loopback gob TCP, and two HTTP clients.
type gatewayStack struct {
	cats   map[string]*catalog.Catalog
	fqs    []federation.Query // the compiled trace, for the oracle
	bodies [][]byte           // the /v1/query request bodies
	index  map[string]int     // SkyQL text -> trace index

	nodes   []*federation.Node
	servers []*federation.Server
	peers   map[string]peer
	sdss    *federation.Node
	portal  *federation.Portal
	reg     *metric.Registry
	httpSrv *http.Server
	served  chan error
	url     string
	client  *http.Client

	tr       atomic.Pointer[spanRec]
	seq      atomic.Uint64
	mu       sync.Mutex
	inflight map[int]*querySpans
	bufs     sync.Pool
}

// querySpans links one traced query's spans across the client, the
// gateway's Exec and the portal's transports (all keyed by trace index;
// one index is never in flight twice).
type querySpans struct {
	seq                   uint64
	client, exec, execute int32
}

func setupGateway(cfg config, sc scale, qs []workload.Query) (stack, error) {
	g := &gatewayStack{index: make(map[string]int), peers: make(map[string]peer),
		inflight: make(map[int]*querySpans)}
	g.bufs.New = func() any { return new(bytes.Buffer) }
	for i, q := range qs {
		text := renderSkyQL(q, 5, gatewayPlans[i%len(gatewayPlans)])
		fq, err := compile(text, i)
		if err != nil {
			return nil, fmt.Errorf("trace query %d: %w", i, err)
		}
		body, err := json.Marshal(map[string]string{"query": text})
		if err != nil {
			return nil, err
		}
		g.fqs = append(g.fqs, fq)
		g.bodies = append(g.bodies, body)
		g.index[text] = i
	}
	var err error
	if g.cats, err = buildCatalogs(sc, "twomass", "usnob"); err != nil {
		return nil, err
	}
	if err := g.wire(sc); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// wire starts the nodes, peers, portal and gateway the way liferaftd
// does with its default flags, except that the peers' client never sees a
// cancellation (see noCancel).
func (g *gatewayStack) wire(sc scale) error {
	// Each daemon has its own virtual clock, registry and trace recorder.
	newNode := func(name string, serving *server.Config, reg *metric.Registry) (*federation.Node, *trace.Recorder, error) {
		clk := simclock.NewVirtual()
		rec := trace.New(trace.Config{Now: clk.Now, SlowThreshold: 2 * time.Second, Sample: 1})
		n, err := federation.NewNode(federation.NodeConfig{
			Catalog: g.cats[name], ObjectsPerBucket: sc.perBucket,
			Alpha: 0.25, CacheBuckets: sc.cache, Shards: 1, Clock: clk,
			Serving: serving, Metrics: core.NewEngineMetrics(reg), Tracer: rec,
		})
		if err == nil {
			g.nodes = append(g.nodes, n)
		}
		return n, rec, err
	}
	g.reg = metric.NewRegistry()
	serving := &server.Config{RateMode: server.RateAdaptive, SLOP99: 2 * time.Second, Registry: g.reg}
	var (
		rec *trace.Recorder
		err error
	)
	if g.sdss, rec, err = newNode("sdss", serving, g.reg); err != nil {
		return err
	}
	g.portal = federation.NewPortal()
	g.portal.Register("sdss", federation.InProc{Node: g.sdss})
	for _, name := range []string{"twomass", "usnob"} {
		n, _, err := newNode(name, nil, metric.NewRegistry())
		if err != nil {
			return err
		}
		srv, err := federation.Serve(n, "127.0.0.1:0")
		if err != nil {
			return err
		}
		g.servers = append(g.servers, srv)
		g.peers[name] = peer{federation.Dial(srv.Addr().String()), srv.Addr().String()}
		g.portal.Register(name, g.peers[name])
	}
	// The gateway shares the sdss node's registry and recorder, as in
	// liferaftd.
	gw, err := server.NewGateway(server.GatewayConfig{
		Exec: g.exec, Server: g.sdss.Serving(), Registry: g.reg, Tracer: rec,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	g.url = "http://" + ln.Addr().String() + "/v1/query"
	g.httpSrv = &http.Server{
		Handler:           gw,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	g.served = make(chan error, 1)
	go func() { g.served <- g.httpSrv.Serve(ln) }()
	g.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   time.Minute,
	}
	return nil
}

// exec is the gateway's executor: liferaftd's gatewayExec, except that
// the query ID is the trace index instead of an arrival counter, so
// SAMPLE subsampling (which hashes the ID) does not depend on arrival
// order.
func (g *gatewayStack) exec(ctx context.Context, tenant, query string) (any, error) {
	idx, ok := g.index[query]
	if !ok {
		return nil, &server.BadRequestError{Err: errors.New("query is not in the trace")}
	}
	tr := g.tr.Load()
	var qs *querySpans
	if tr != nil {
		qs = g.lookup(idx)
	}
	var cs int32
	if qs != nil {
		qs.exec = tr.begin(span{Name: "server.exec", Parent: qs.client, Query: qs.seq, Index: idx})
		defer tr.end(qs.exec, 0, 0)
		cs = tr.begin(span{Name: "skyql.compile", Parent: qs.exec, Query: qs.seq, Index: idx})
	}
	q, err := skyql.Parse(query)
	var fq federation.Query
	if err == nil {
		fq, err = skyql.Compile(q, uint64(idx), 0)
	}
	if qs != nil {
		tr.end(cs, 0, 0)
	}
	if err != nil {
		return nil, &server.BadRequestError{Err: err}
	}
	if qs != nil {
		qs.execute = tr.begin(span{Name: "federation.execute", Parent: qs.exec, Query: qs.seq, Index: idx})
	}
	fq.Tenant = tenant
	rs, err := g.portal.ExecuteCtx(ctx, fq)
	if qs != nil {
		var rows int64
		if rs != nil {
			rows = int64(len(rs.Rows))
		}
		tr.end(qs.execute, rows, 0)
	}
	if err != nil {
		return nil, err
	}
	rows := rs.Rows
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return map[string]any{
		"rows":        rows,
		"row_count":   len(rs.Rows),
		"hop_elapsed": rs.HopElapsed,
		"shipped":     rs.Shipped,
	}, nil
}

func (g *gatewayStack) lookup(idx int) *querySpans {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight[idx]
}

// gatewayReply is the part of a /v1/query reply the check reads.
type gatewayReply struct {
	Result struct {
		Rows []struct {
			Objects map[string]struct{ ID uint64 }
		} `json:"rows"`
		RowCount int `json:"row_count"`
	} `json:"result"`
}

func (g *gatewayStack) send(idx int) outcome {
	var o outcome
	tr := g.tr.Load()
	var qs *querySpans
	if tr != nil {
		qs = &querySpans{seq: g.seq.Add(1)}
		qs.client = tr.begin(span{Name: "client", Parent: -1, Query: qs.seq, Index: idx})
		g.mu.Lock()
		g.inflight[idx] = qs
		g.mu.Unlock()
		defer func() {
			g.mu.Lock()
			delete(g.inflight, idx)
			g.mu.Unlock()
		}()
	}
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(g.bodies[idx]))
	if err != nil {
		if qs != nil {
			tr.end(qs.client, 0, 0)
		}
		return o
	}
	buf := g.bufs.Get().(*bytes.Buffer)
	defer g.bufs.Put(buf)
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if qs != nil {
		tr.end(qs.client, int64(buf.Len()), 0)
	}
	o.rejected = resp.StatusCode == http.StatusTooManyRequests
	if rerr != nil || resp.StatusCode != http.StatusOK {
		return o
	}
	var r gatewayReply
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil || r.Result.RowCount != len(r.Result.Rows) {
		return o
	}
	o.ok = true
	o.count = len(r.Result.Rows)
	for _, row := range r.Result.Rows {
		var h uint64
		for archive, obj := range row.Objects {
			h += idHash(archive, obj.ID)
		}
		o.digest += mix(h)
	}
	return o
}

func (g *gatewayStack) expect(idx int) answer { return planRef(g.cats, g.fqs[idx]) }

// setTracer swaps timed transports in for the traced phase, so the
// untraced phase runs exactly the transports wire registers.
func (g *gatewayStack) setTracer(tr *spanRec) {
	g.tr.Store(tr)
	wrap := func(name string, t federation.Transport, remote bool) federation.Transport {
		if tr == nil {
			return t
		}
		return timedTransport{t, name, remote, g}
	}
	g.portal.Register("sdss", wrap("sdss", federation.InProc{Node: g.sdss}, false))
	for name, c := range g.peers {
		g.portal.Register(name, wrap(name, c, true))
	}
}

func (g *gatewayStack) registry() *metric.Registry { return g.reg }

func (g *gatewayStack) setupLayers() setupTimings { return setupTimings{} }

func (g *gatewayStack) close() error {
	var errs []error
	if g.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, g.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-g.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		g.client.CloseIdleConnections()
	}
	for _, c := range g.peers {
		errs = append(errs, c.Close())
	}
	for _, s := range g.servers {
		errs = append(errs, s.Close())
	}
	for _, n := range g.nodes {
		errs = append(errs, n.Close())
	}
	return errors.Join(errs...)
}

// peer is how the portal reaches a remote archive: liferaftd's TCP
// client, handed a context that keeps the query's deadline but not its
// cancellation (see noCancel).
type peer struct {
	*federation.Client
	addr string
}

// MatchCtx implements federation.ContextTransport.
func (p peer) MatchCtx(ctx context.Context, req federation.MatchRequest) (federation.MatchResponse, error) {
	return p.Client.MatchCtx(noCancel{ctx}, req)
}

// noCancel keeps a context's deadline and values and drops its
// cancellation signal.
//
// federation.Client's round trip arms a goroutine that expires the
// connection's deadline when the context is cancelled, and disarms it when
// the exchange ends. The gateway cancels the request context as soon as
// Exec returns. If the goroutine has not reached its select by then, it
// can still take the cancellation and expire the deadline of the next
// exchange on the shared connection, which another query owns: that
// exchange fails with "receive: ... i/o timeout" and its query gets a
// 502. It hit a few gateway_mix queries in 100,000, in some runs and not
// others, so timed phases that arm the watcher would not repeat. The
// timed phases never arm it; the deadline still bounds every hop.
// probeCancelWatch measures the race on its own.
type noCancel struct{ context.Context }

func (noCancel) Done() <-chan struct{} { return nil }

// probeCancelWatch measures the cancellation-watcher race (see noCancel)
// for dur on a fresh client to the twomass peer: one goroutine sends hops
// under a context cancelled as soon as each returns, as the gateway does,
// while another extracts over the same connection. It reports failed round
// trips per million.
func (g *gatewayStack) probeCancelWatch(dur time.Duration, logw io.Writer) (float64, error) {
	c := federation.Dial(g.peers["twomass"].addr)
	defer c.Close()
	q := g.fqs[0]
	ereq := federation.ExtractRequest{RA: q.RA, Dec: q.Dec, RadiusDeg: 0.1, Selectivity: 1, Seed: q.Seed}
	ex, err := c.Extract(ereq)
	if err != nil {
		return 0, fmt.Errorf("cancel-watch probe: %w", err)
	}
	mreq := federation.MatchRequest{MatchRadiusArcsec: q.MatchRadiusArcsec, Objects: ex.Objects}
	hops := []func() error{
		func() error {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_, err := c.MatchCtx(ctx, mreq)
			return err
		},
		func() error {
			_, err := c.Extract(ereq)
			return err
		},
	}
	var calls, fails atomic.Int64
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for _, hop := range hops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				calls.Add(1)
				if hop() != nil {
					fails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(logw, "e2ebench: cancel-watch probe: %d round trips, %d failed\n", calls.Load(), fails.Load())
	return 1e6 * ratio(float64(fails.Load()), float64(calls.Load())), nil
}

// timedTransport is the federation.Transport the traced phase registers
// with the portal: it records a span around every extraction and hop.
type timedTransport struct {
	inner  federation.Transport
	name   string
	remote bool
	g      *gatewayStack
}

func (t timedTransport) Archive() (string, error) { return t.inner.Archive() }

func (t timedTransport) Extract(req federation.ExtractRequest) (federation.ExtractResponse, error) {
	tr, qs := t.g.tr.Load(), t.g.lookup(int(req.QueryID))
	if tr == nil || qs == nil {
		return t.inner.Extract(req)
	}
	id := tr.begin(span{Name: "federation.extract", Parent: qs.execute, Query: qs.seq, Index: int(req.QueryID),
		Archive: t.name, Remote: t.remote})
	resp, err := t.inner.Extract(req)
	tr.end(id, int64(len(resp.Objects)), 0)
	return resp, err
}

func (t timedTransport) Match(req federation.MatchRequest) (federation.MatchResponse, error) {
	return t.MatchCtx(context.Background(), req)
}

// MatchCtx times one hop. Across TCP the node reports its own share
// (MatchResponse.Elapsed) and the rest is gob plus loopback; in process
// the whole call is the node's.
func (t timedTransport) MatchCtx(ctx context.Context, req federation.MatchRequest) (federation.MatchResponse, error) {
	ct := t.inner.(federation.ContextTransport)
	tr, qs := t.g.tr.Load(), t.g.lookup(int(req.QueryID))
	if tr == nil || qs == nil {
		return ct.MatchCtx(ctx, req)
	}
	id := tr.begin(span{Name: "federation.match", Parent: qs.execute, Query: qs.seq, Index: int(req.QueryID),
		Archive: t.name, Remote: t.remote})
	resp, err := ct.MatchCtx(ctx, req)
	inner := int64(-1)
	if t.remote {
		inner = int64(resp.Elapsed)
	}
	tr.end(id, int64(len(req.Objects)), inner)
	return resp, err
}
