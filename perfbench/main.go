// Command perfbench is the repository benchmark: three seeded workloads that
// measure the client-based access-control pipeline end to end (local SOE
// views, remote SOE views over the untrusted blob server, and a mixed
// read/write server load), check every view and update they make, and in a
// separate traced run attribute time and work to each layer. Run it from the
// checkout root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload local_soe --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it is the
// full report (every metric that applies to the workload, tail percentiles
// and sample counts, run validity and the machine fingerprint).
// --workload all runs the three workloads in one process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one named measurement with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and fixes its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are the end-to-end metrics that apply to every workload
// and hold steady enough from run to run to gate a change; BENCHMARK.json
// lists the same names and units. The wall-clock metrics (views_per_s,
// view_p50_ms, view_tail_ms, ttfb_p50_ms) and the workload-specific ones are
// in the report: on a virtual machine whose host steals CPU time they swing
// with the steal from run to run, the process CPU time far less.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// layerMetrics are the per-layer metrics of the traced run; BENCHMARK.json
// lists the same names and units. A layer a workload does not exercise
// reports 0.
var layerMetrics = []metricDef{
	{"secure.decrypt_ms_per_view", "ms"},
	{"secure.verify_ms_per_view", "ms"},
	{"secure.hash_fetch_ms_per_view", "ms"},
	{"secure.bytes_decrypted_per_view", "bytes"},
	{"skipindex.decode_ms_per_view", "ms"},
	{"skipindex.skip_ms_per_view", "ms"},
	{"skipindex.bytes_skipped_per_view", "bytes"},
	{"core.eval_ms_per_view", "ms"},
	{"core.nodes_decided_per_view", "count"},
	{"core.subjects_per_shared_scan", "count"},
	{"xmlstream.emit_ms_per_view", "ms"},
	{"xmlstream.view_kb_per_view", "kB"},
	{"remote.fetch_ms_per_view", "ms"},
	{"remote.req_p50_ms", "ms"},
	{"remote.manifest_requests_per_view", "count"},
	{"remote.blob_requests_per_view", "count"},
	{"remote.hashes_requests_per_view", "count"},
	{"remote.wire_amplification", "ratio"},
	{"server.blob_handler_ms_per_view", "ms"},
	{"server.view_handler_p50_ms", "ms"},
	{"server.policy_cache_hit_frac", "frac"},
	{"server.coalesced_view_frac", "frac"},
	{"server.patch_handler_p50_ms", "ms"},
	{"storage.wal_kb_per_patch", "kB"},
	{"storage.fsyncs_per_patch", "count"},
	{"storage.group_commit_frac", "frac"},
	{"storage.checkpoints", "count"},
	{"storage.recovery_ms", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"loadgen.queue_wait_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.unattributed_ms_per_view", "ms"},
	{"trace.overhead_frac", "frac"},
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// minCycles is the fewest cycles a timed closed-loop phase measures.
	minCycles int
	// outDir receives the data directory of server_mixed and the span
	// files of traced runs; it lies inside the checkout.
	outDir string
}

// result is what one workload run produced.
type result struct {
	workload  string
	attempted int64
	failed    int64
	// problems lists every failed check (the first few are printed).
	problems []string
	// e2e holds the gated end-to-end metrics, layer the per-layer metrics
	// (traced runs only), extra the other end-to-end metrics.
	e2e   map[string]float64
	layer map[string]float64
	extra map[string]metric
	// info carries tail percentiles, sample counts and run validity.
	info map[string]any
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		extra:    map[string]metric{},
		info:     map[string]any{},
	}
}

// fail records a failed operation with the reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check records a failed check without counting another operation: the
// operation it belongs to was already counted as attempted.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

var workloads = map[string]func(config) (*result, error){
	"local_soe":    runLocalSOE,
	"remote_soe":   runRemoteSOE,
	"server_mixed": runServerMixed,
}

var workloadOrder = []string{"local_soe", "remote_soe", "server_mixed"}

func main() {
	workload := flag.String("workload", "", "local_soe, remote_soe, server_mixed or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	if err := run(*workload, config{
		seed: *seed, seconds: *seconds, trace: *traceFlag == 1, minCycles: minCycles, outDir: ".bench_out",
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, cfg config) error {
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	names := []string{workload}
	if workload == "all" {
		names = workloadOrder
	} else if workloads[workload] == nil {
		return fmt.Errorf("unknown --workload %q (want local_soe, remote_soe, server_mixed or all)", workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	fp := fingerprint()
	var attempted, failed int64
	metrics := map[string]metric{}
	for _, name := range names {
		res, err := workloads[name](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		selected := selectMetrics(res, cfg.trace)
		printReport(res, cfg, fp, selected)
		attempted += res.attempted
		failed += res.failed
		for k, v := range selected {
			if len(names) > 1 {
				k = name + "." + k
			}
			metrics[k] = v
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return errors.New("output checks failed")
	}
	return nil
}

// selectMetrics returns the metrics of the last output line: every
// end-to-end metric, or every per-layer metric in a traced run.
func selectMetrics(res *result, traced bool) map[string]metric {
	defs, values := endToEndMetrics, res.e2e
	if traced {
		defs, values = layerMetrics, res.layer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// printReport prints the human-readable summary and the full report line.
func printReport(res *result, cfg config, fp map[string]string, selected map[string]metric) {
	fmt.Printf("== %s seed=%d seconds=%g trace=%v attempted=%d failed=%d\n",
		res.workload, cfg.seed, cfg.seconds, cfg.trace, res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Println("   FAILED:", p)
	}
	all := map[string]metric{}
	for k, v := range selected {
		all[k] = v
	}
	for k, v := range res.extra {
		all[k] = v
	}
	for _, k := range sortedKeys(all) {
		fmt.Printf("   %-36s %14.4f %s\n", k, all[k].Value, all[k].Unit)
	}
	report, err := json.Marshal(map[string]any{
		"workload":    res.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"metrics":     all,
		"info":        res.info,
		"fingerprint": fp,
	})
	if err == nil {
		fmt.Println(string(report))
	}
}

// msSince is time.Since in milliseconds, the unit of the metrics.
func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
