package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics and
// workloads the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadOrder)
	}
	for _, c := range []struct {
		list []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, layerMetrics}} {
		var got, want []metricDef
		for _, m := range c.list {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = c.defs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json lists %v, program prints %v", got, want)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 40; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 30 || p != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75 (ten samples beyond)", v, p)
	}
	if v, p := tail(xs[:8]); v != 4 || p != 50 {
		t.Errorf("tail of 1..8 = %v at p%v, want the median 4 at p50", v, p)
	}
}

// TestClosedLoopCountsRepeat runs each closed-loop workload twice on one
// seed for a single measured cycle: every check passes and the
// deterministic counts repeat exactly.
func TestClosedLoopCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 800-folder workloads")
	}
	for _, name := range []string{"local_soe", "remote_soe"} {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 5, seconds: 0.001, minCycles: 1, outDir: t.TempDir()}
			first := deterministicCounts(t, name, cfg)
			if second := deterministicCounts(t, name, cfg); !reflect.DeepEqual(first, second) {
				t.Errorf("counts differ between runs of seed %d:\n%v\n%v", cfg.seed, first, second)
			}
		})
	}
}

func deterministicCounts(t *testing.T, workload string, cfg config) map[string]float64 {
	t.Helper()
	res, err := workloads[workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.problems)
	}
	out := map[string]float64{}
	for _, k := range []string{"soe_cost_s_per_view", "wire_kb_per_view", "round_trips_per_view"} {
		out[k] = res.extra[k].Value
	}
	for _, k := range []string{"secure.bytes_decrypted_per_view", "skipindex.bytes_skipped_per_view",
		"core.nodes_decided_per_view", "xmlstream.view_kb_per_view"} {
		out[k] = res.layer[k]
	}
	if workload == "remote_soe" && out["round_trips_per_view"] == 0 {
		t.Errorf("remote_soe reported no round trips")
	}
	return out
}

// TestServerMixedChecksPass runs a short traced server_mixed run: every
// view, PATCH and post-reopen check passes and every layer reports.
func TestServerMixedChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the durable server")
	}
	res, err := runServerMixed(config{seed: 3, seconds: 3, trace: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.problems)
	}
	for _, k := range []string{"storage.wal_kb_per_patch", "storage.fsyncs_per_patch", "storage.recovery_ms",
		"server.view_handler_p50_ms", "server.patch_handler_p50_ms", "secure.decrypt_ms_per_view"} {
		if res.layer[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, res.layer[k])
		}
	}
}
