// Command perfbench is deltanet's end-to-end benchmark. It runs one
// seeded workload for a fixed time, checks the program's outputs, and
// prints its figures: the end-to-end metrics in a timed run, or the
// per-layer split in a separate traced run.
//
//	perfbench --workload replay|ingest-bgp|verdict-10k --seed N --seconds S --trace 0|1 [--outdir DIR]
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// Lines before it print every metric with its sample count, plus notes.
// A run whose outputs are wrong prints correct=false and exits 1; a run
// that cannot measure (including a percentile without enough samples
// beyond it) prints no result and exits 1.
//
// See README.md in this directory for the workloads, the metric
// definitions, and the layer-to-metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one run's parameters.
type config struct {
	seed     int64
	duration time.Duration
	trace    bool
	outdir   string // scratch space for journals and span dumps
}

var workloads = map[string]func(config) (*report, error){
	"replay":      runReplay,
	"ingest-bgp":  runIngest,
	"verdict-10k": runVerdict,
}

// endToEnd lists the timed run's metrics; every workload reports each.
var endToEnd = []string{
	"setup_s", "updates_per_s", "verdict_p50_us", "verdict_p99_us",
	"query_p50_us", "query_p99_us", "cpu_us_per_update", "heap_live_mb",
}

func main() {
	workload := flag.String("workload", "", "workload: replay, ingest-bgp or verdict-10k")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed phase length in seconds")
	traceRun := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	outdir := flag.String("outdir", ".bench_build", "scratch directory for journals and span dumps")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload replay|ingest-bgp|verdict-10k --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(*outdir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)),
		trace: *traceRun == 1, outdir: dir}
	r, err := run(cfg)
	if err == nil {
		err = checkNames(r, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r.workload = *workload
	printReport(r, cfg.trace)
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

// checkNames verifies the run produced exactly the metric set its mode
// promises, so a workload cannot silently drop one.
func checkNames(r *report, traced bool) error {
	want, got := endToEnd, r.e2e
	if traced {
		want, got = layerNames, r.layer
	}
	have := map[string]bool{}
	for _, m := range got {
		if have[m.name] {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		have[m.name] = true
	}
	for _, n := range want {
		if !have[n] {
			return fmt.Errorf("metric %s missing", n)
		}
	}
	if len(have) != len(want) {
		return fmt.Errorf("reported %d metrics, expected %d", len(have), len(want))
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printReport(r *report, traced bool) {
	show := func(kind string, ms []metric) {
		for _, m := range ms {
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("  (n=%d)", m.n)
			}
			fmt.Printf("%-6s %-36s %14.4f %-6s%s\n", kind, m.name, m.value, m.unit, n)
		}
	}
	fmt.Printf("workload %s: attempted=%d failed=%d failed_frac=%.6f\n",
		r.workload, r.attempted, r.failed, perOp(float64(r.failed), float64(r.attempted)))
	show("e2e", r.e2e)
	show("layer", r.layer)
	for _, n := range r.notes {
		fmt.Println("note  ", n)
	}
	for _, p := range r.problems {
		fmt.Println("WRONG ", p)
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", p)
	}
	res := jsonResult{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonMetric{}}
	ms := r.e2e
	if traced {
		ms = r.layer
	}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}
