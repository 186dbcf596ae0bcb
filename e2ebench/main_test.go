package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// tiny shrinks every workload so a run takes about a second.
var tiny = scale{objects: 20_000, genLevel: 4, perBucket: 200, cache: 10,
	traceLen: 80, warmup: 5, clients: 2, objectBytes: 128}

// declared is BENCHMARK.json's metric list: what every run must print.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyRun(t *testing.T, workload string, traced, corrupt bool) *result {
	t.Helper()
	sc := tiny
	res, err := run(config{workload: workload, seed: 7, seconds: 0.6, trace: traced, setups: 1,
		out: t.TempDir(), scale: &sc, corruptReference: corrupt}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestEveryWorkloadPrintsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m.Name, got, m.Unit)
				}
			}
			var buf bytes.Buffer
			if err := printResult(&buf, res); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			if traced {
				checkLayers(t, name, res)
			}
		}
	}
}

// checkLayers asserts that each layer a workload exercises shows up in
// its traced run.
func checkLayers(t *testing.T, workload string, res *result) {
	t.Helper()
	nonZero := []string{"federation.match_us", "federation.node_us_p50", "federation.shipped_per_hop",
		"federation.rows_per_query", "skyql.compile_us", "federation.extract_us",
		"core.pick_us", "core.services_per_query", "bucket.reads_per_query"}
	switch workload {
	case "gateway_mix":
		nonZero = append(nonZero, "server.http_us", "server.response_kb", "federation.execute_us",
			"federation.wire_us", "federation.plan_us")
	case "node_uniform_disk":
		nonZero = append(nonZero, "bucket.read_kb_per_query", "bucket.read_ms")
	}
	for _, name := range nonZero {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", workload, name, res.Metrics[name].Value)
		}
	}
}

func TestCorruptReferenceFailsTheCheck(t *testing.T) {
	for name := range workloads {
		res := tinyRun(t, name, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference passed: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},              // overlaps a: 10..60 covered once
		{Name: "hop", Start: 70, End: 90, Parent: 0, Inner: 15}, // remote node took 15 of 20
	}
	selfTimes(spans)
	for i, want := range []int64{30, 30, 30, 5} {
		if spans[i].Self != want {
			t.Errorf("%s: self %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
}

func TestScrapeSumsMatchingSeries(t *testing.T) {
	snap := promSnap{
		`liferaft_engine_services_total{shard="0",strategy="scan"}`:  3,
		`liferaft_engine_services_total{shard="1",strategy="scan"}`:  4,
		`liferaft_engine_services_total{shard="0",strategy="index"}`: 5,
		`liferaft_engine_services_total_other`:                       100,
	}
	if got := snap.sum("liferaft_engine_services_total", `strategy="scan"`); got != 7 {
		t.Errorf("scan services = %v, want 7", got)
	}
	if got := snap.sum("liferaft_engine_services_total"); got != 12 {
		t.Errorf("all services = %v, want 12", got)
	}
}
