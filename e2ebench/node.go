package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/federation"
	"liferaft/internal/metric"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
	"liferaft/internal/trace"
	"liferaft/internal/workload"
)

// nodeStack is one file-backed sdss archive node driven in process
// through Node.MatchCtx, the way a portal's cross-match hop reaches a
// liferaftd -data-dir peer that runs without -http (no serving layer).
// The requests are the trace's twomass extractions, built during set-up.
type nodeStack struct {
	cats    map[string]*catalog.Catalog
	fqs     []federation.Query
	reqs    []federation.MatchRequest
	node    *federation.Node
	reg     *metric.Registry
	dataDir string // removed on close
	timings setupTimings
	tr      atomic.Pointer[spanRec]
	seq     atomic.Uint64
}

// setupDiskNode builds the requests from the trace, then writes the
// segment store to a fresh directory, as liferaftd -data-dir does on
// first start, and opens the node over it on the real clock with two
// shards.
func setupDiskNode(cfg config, sc scale, qs []workload.Query) (stack, error) {
	dir, err := os.MkdirTemp(cfg.out, "segments-")
	if err != nil {
		return nil, err
	}
	n := &nodeStack{dataDir: dir}
	if err := n.wire(sc, qs); err != nil {
		return nil, errors.Join(err, n.close())
	}
	return n, nil
}

func (n *nodeStack) wire(sc scale, qs []workload.Query) error {
	var err error
	if n.cats, err = buildCatalogs(sc, "twomass"); err != nil {
		return err
	}
	if err := n.buildRequests(qs, sc); err != nil {
		return err
	}
	part, err := bucket.NewPartition(n.cats["sdss"], sc.perBucket, sc.objectBytes)
	if err != nil {
		return err
	}
	if _, err := segment.Write(n.dataDir, part, segment.WriteOptions{}); err != nil {
		return err
	}
	clk := simclock.Real{}
	n.reg = metric.NewRegistry()
	n.node, err = federation.NewNode(federation.NodeConfig{
		Catalog: n.cats["sdss"], ObjectsPerBucket: sc.perBucket,
		Alpha: 0.25, CacheBuckets: sc.cache, Shards: 2, Clock: clk,
		DataDir: n.dataDir, ObjectBytes: sc.objectBytes,
		Metrics: core.NewEngineMetrics(n.reg),
		Tracer:  trace.New(trace.Config{Now: clk.Now, SlowThreshold: 2 * time.Second, Sample: 1}),
	})
	return err
}

// buildRequests compiles every trace query as the SkyQL plan
// XMATCH(t, s) and extracts its shipped objects at a twomass node, the
// first step of the portal's plan. Both calls are timed.
func (n *nodeStack) buildRequests(qs []workload.Query, sc scale) error {
	twomass, err := federation.NewNode(federation.NodeConfig{
		Catalog: n.cats["twomass"], ObjectsPerBucket: sc.perBucket,
		Alpha: 0.25, CacheBuckets: sc.cache, Clock: simclock.NewVirtual(),
	})
	if err != nil {
		return err
	}
	defer twomass.Close()
	var compileT, extractT time.Duration
	for i, q := range qs {
		text := renderSkyQL(q, 5, []string{"t", "s"})
		t0 := time.Now()
		fq, err := compile(text, i)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("trace query %d: %w", i, err)
		}
		ext, err := twomass.Extract(federation.ExtractRequest{
			QueryID: fq.ID, RA: fq.RA, Dec: fq.Dec, RadiusDeg: fq.RadiusDeg,
			Selectivity: fq.Selectivity, Seed: fq.Seed,
		})
		if err != nil {
			return fmt.Errorf("extracting trace query %d: %w", i, err)
		}
		compileT += t1.Sub(t0)
		extractT += time.Since(t1)
		// The portal ships the frontier sorted by object ID.
		objs := ext.Objects
		sort.Slice(objs, func(a, b int) bool { return objs[a].ID < objs[b].ID })
		n.fqs = append(n.fqs, fq)
		n.reqs = append(n.reqs, federation.MatchRequest{
			QueryID: fq.ID, MatchRadiusArcsec: fq.MatchRadiusArcsec,
			MagLo: fq.MagLo, MagHi: fq.MagHi, Objects: objs,
		})
	}
	perCall := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(len(qs)) }
	n.timings = setupTimings{compileUs: perCall(compileT), extractUs: perCall(extractT)}
	return nil
}

func (n *nodeStack) send(idx int) outcome {
	var o outcome
	req := n.reqs[idx]
	tr := n.tr.Load()
	var id int32
	if tr != nil {
		id = tr.begin(span{Name: "federation.match", Parent: -1, Query: n.seq.Add(1), Index: idx, Archive: "sdss"})
	}
	resp, err := n.node.MatchCtx(context.Background(), req)
	if tr != nil {
		tr.end(id, int64(len(req.Objects)), -1)
	}
	if err != nil {
		return o
	}
	o.ok = true
	o.count = len(resp.Pairs)
	for _, p := range resp.Pairs {
		o.digest += pairHash(p.Local.ID, p.Remote.ID)
	}
	return o
}

func (n *nodeStack) expect(idx int) answer {
	return pairsRef(n.cats["twomass"], n.cats["sdss"], n.fqs[idx])
}

func (n *nodeStack) setTracer(tr *spanRec) { n.tr.Store(tr) }

func (n *nodeStack) registry() *metric.Registry { return n.reg }

func (n *nodeStack) setupLayers() setupTimings { return n.timings }

func (n *nodeStack) close() error {
	var err error
	if n.node != nil {
		err = n.node.Close()
	}
	return errors.Join(err, os.RemoveAll(n.dataDir))
}
