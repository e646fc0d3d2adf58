// Command perfbench is the repository's benchmark. It runs one named
// workload against the system from outside, through its public packages,
// checks the outputs, and prints one JSON result line:
//
//	perfbench --workload edge_fanout --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, whose spans are written
// to .bench_build/trace/<workload>.json. See README.md for the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a live workload sets up; setup_s is the
// median.
const setupReps = 7

// metricDef is one reported metric: name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the --trace 0 metrics, every one measured on every
// workload (README.md gives each workload's definition).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliveries_per_s", "1/s"},
	{"cpu_ns_per_delivery", "ns"},
	{"latency_p50_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"qos_ratio", "ratio"},
	{"delivery_ratio", "ratio"},
	{"packets_per_sub", "count"},
}

// perLayer lists the --trace 1 metrics. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"client.publish_ns_p50", "ns"},
	{"session.register_s", "s"},
	{"session.subids_per_frame", "count"},
	{"shard.depth_max", "count"},
	{"shard.processed_skew", "ratio"},
	{"relay.deliveries_per_s", "1/s"},
	{"relay.tx_per_delivery", "count"},
	{"relay.acks_per_batch", "count"},
	{"relay.bytes_saved_per_delivery", "B"},
	{"conn.queue_drops", "count"},
	{"edge.churn_ops_per_s", "1/s"},
	{"edge.ledger_settle_ms", "ms"},
	{"ctrl.rebuilds", "count"},
	{"ctrl.noops", "count"},
	{"ctrl.tables_built", "count"},
	{"wal.appends_per_fsync", "count"},
	{"wal.bytes_per_delivery", "B"},
	{"wal.durable_deliveries_per_s", "1/s"},
	{"wal.append_durable_us_p50", "us"},
	{"wal.append_durable_us_p99", "us"},
	{"wire.encode_ns.publish", "ns"},
	{"wire.encode_ns.data", "ns"},
	{"wire.encode_ns.data_batch", "ns"},
	{"wire.encode_ns.ack_batch", "ns"},
	{"wire.encode_ns.deliver", "ns"},
	{"wire.encode_ns.mux_deliver", "ns"},
	{"wire.decode_ns.publish", "ns"},
	{"wire.decode_ns.data", "ns"},
	{"wire.decode_ns.data_batch", "ns"},
	{"wire.decode_ns.ack_batch", "ns"},
	{"wire.decode_ns.deliver", "ns"},
	{"wire.decode_ns.mux_deliver", "ns"},
	{"wire.decode_allocs.publish", "count"},
	{"wire.decode_allocs.data", "count"},
	{"wire.decode_allocs.data_batch", "count"},
	{"wire.decode_allocs.ack_batch", "count"},
	{"wire.decode_allocs.deliver", "count"},
	{"wire.decode_allocs.mux_deliver", "count"},
	{"proc.cpu_util", "ratio"},
	{"proc.allocs_per_delivery", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"topology.build_ms", "ms"},
	{"pubsub.build_ms", "ms"},
	{"netsim.build_ms", "ms"},
	{"algo1.setup_ms", "ms"},
	{"algo1.rebuild_us_p50", "us"},
	{"algo2.publish_us_p50", "us"},
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"des.run_self_s", "s"},
	{"experiment.cell_s.dcrd", "s"},
	{"experiment.cell_s.rtree", "s"},
	{"experiment.cell_s.dtree", "s"},
	{"experiment.cell_s.oracle", "s"},
	{"experiment.cell_s.multipath", "s"},
	{"netsim.data_tx", "count"},
	{"netsim.ctrl_tx", "count"},
	{"netsim.dropped", "count"},
	{"latency.p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"edge_fanout": runEdge,
	"sim_fig2":    runSim,
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	tracer   *Tracer // nil for an untraced run
	workDir  string
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed uint64
	problems          []string
	e2e, layer        map[string]float64
	detail            map[string]any
	stamp             Stamp
	simEvents         uint64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

// latencyWindow is how many consecutive samples one latency window holds.
const latencyWindow = 2000

// latency sets latency_p50_ms to the faster quartile, over consecutive
// windows of latencyWindow samples (ns, in send order), of each window's
// 50th percentile, so a stall moves the windows it hits rather than the
// run. The pooled p99 is the per-layer latency.p99_ms: on a 2-core machine
// the few GC cycles that land in a run decide it, too noisily to bound. The
// pooled percentiles, the sample count and the highest percentile with ten
// samples beyond it go to the detail line. It sorts samples in place.
func (o *outcome) latency(samples []float64, kind string) {
	p50s := windowPercentiles(samples, latencyWindow, 50)
	o.e2e["latency_p50_ms"] = fastQuartile(p50s, false) / 1e6
	all := samples
	sort.Float64s(all)
	tail, _ := tailPercentile(len(all))
	o.detail["latency_kind"] = kind
	o.detail["latency_samples"] = len(all)
	o.detail["latency_windows"] = len(p50s)
	o.detail["latency_tail_percentile"] = tail
	o.detail["latency_pooled_ms"] = map[string]float64{
		"p50": percentile(all, 50) / 1e6, "p99": percentile(all, 99) / 1e6, "tail": percentile(all, tail) / 1e6,
	}
	o.layer["latency.p99_ms"] = percentile(all, 99) / 1e6
	if len(p50s) == 0 {
		o.problems = append(o.problems, fmt.Sprintf("only %d latency samples: fewer than one window of %d", len(all), latencyWindow))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload: edge_fanout or sim_fig2")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	)
	flag.Parse()
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	heap := startHeapSampler()
	ticks0, steal0 := cpuTicks()
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	// An interrupted run still removes its WAL directories.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		_ = os.RemoveAll(workDir)
		os.Exit(1)
	}()
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, workDir: workDir}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	out, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	out.e2e["heap_peak_mb"] = heap.Stop()
	out.stamp = machineStamp(workDir)
	ticks1, steal1 := cpuTicks()
	out.stamp.StealPct = 100 * ratio(float64(delta(steal1, steal0)), float64(delta(ticks1, ticks0)))

	metrics := map[string]metricOut{}
	if cfg.tracer == nil {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", *workload, m.name)
			}
			if v <= 0 {
				out.problems = append(out.problems, fmt.Sprintf("%s is %v", m.name, v))
			}
			metrics[m.name] = metricOut{v, m.unit}
		}
	} else {
		if err := traceLayers(cfg, out); err != nil {
			return err
		}
		for _, m := range perLayer {
			metrics[m.name] = metricOut{out.layer[m.name], m.unit}
		}
	}
	if out.attempted == 0 {
		out.problems = append(out.problems, "no operation was attempted")
	}
	out.detail["stamp"] = out.stamp
	out.detail["problems"] = out.problems
	out.detail["workload"] = *workload
	out.detail["seed"] = *seed
	if err := printJSON(map[string]any{"detail": out.detail}); err != nil {
		return err
	}
	return printJSON(resultLine{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   metrics,
	})
}

// traceLayers derives the span-based metrics and writes the trace file.
func traceLayers(cfg runConfig, out *outcome) error {
	spans, dropped := cfg.tracer.Spans()
	out.layer["client.publish_ns_p50"] = percentile(durations(spans, "client.publish"), 50)
	if cfg.workload == "sim_fig2" {
		simSpanLayers(out, spans)
	}
	out.layer["trace.spans"] = float64(len(spans))
	layers := layerTimes(spans)
	out.detail["layers"] = layers
	out.detail["spans_dropped"] = dropped

	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, cfg.workload+".json")
	out.detail["trace_file"] = path
	return writeTrace(path, spans, map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "stamp": out.stamp,
		"layers": layers, "metrics": out.layer,
		"spans_dropped": dropped,
	})
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
