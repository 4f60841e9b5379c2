// Command ftcbench is the repository's benchmark. It deploys FTC chains
// through the library's entry points (ftc, core, exp, orch via ftc, trans),
// offers seeded traffic from one generator goroutine, checks the outputs and
// prints its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer metrics of
// a traced run. Every metric of the run, with the machine it ran on, is also
// printed above that line and written under -out. README.md describes the
// workloads and metrics; -spec prints BENCHMARK.json.
//
//	go run . -workload fabric-saturate -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed; the Poisson schedule and flow order derive from it")
		seconds = flag.Int("seconds", 10, "measurement window per pass, in seconds")
		trace   = flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result records and span files")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		if err := printSpec(); err != nil {
			fmt.Fprintln(os.Stderr, "ftcbench:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ftcbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftcbench:", err)
		os.Exit(1)
	}
	if err := report(w, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "ftcbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range append(append([]*workload(nil), workloads...), diagnostics...) {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// options are one invocation's settings.
type options struct {
	seed   int64
	window time.Duration
	traced bool
	out    string
}

// result is one invocation's outcome: every metric it measured and the
// correctness checks that failed.
type result struct {
	metrics   map[string]float64
	failures  []string
	attempted uint64
	failed    uint64
	machine   map[string]string
	series    map[string][]float64 // per-second views kept in the result record
}

func (r *result) correct() bool { return len(r.failures) == 0 }

// report prints every metric, writes the result record and prints the
// summary JSON line last.
func report(w *workload, o options, res *result) error {
	keys := []string{"workload", "seed", "seconds", "trace", "nproc", "gomaxprocs", "go", "commit", "burst"}
	var head []string
	for _, k := range keys {
		head = append(head, k+"="+res.machine[k])
	}
	fmt.Println("ftcbench: " + strings.Join(head, " "))
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := res.metrics[m.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	for _, k := range sortedKeys(res.series) {
		fmt.Printf("  %s %.4g\n", k, res.series[k])
	}
	for _, f := range res.failures {
		fmt.Println("  CHECK FAILED: " + f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	selected := endToEnd
	if o.traced {
		selected = perLayer
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	all := map[string]value{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := res.metrics[m.name]; ok {
			all[m.name] = value{v, m.unit}
		}
	}
	for _, m := range selected {
		summary.Metrics[m.name] = all[m.name]
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	record, err := json.MarshalIndent(map[string]any{
		"machine": res.machine, "correct": res.correct(), "failures": res.failures,
		"attempted": res.attempted, "failed": res.failed, "metrics": all, "series": res.series,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, btoi(o.traced)))
	if err := os.WriteFile(path, append(record, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sortedKeys(m map[string][]float64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// machineInfo records what the result depends on besides the code.
func machineInfo(w *workload, o options) map[string]string {
	return map[string]string{
		"workload":   w.name,
		"seed":       fmt.Sprint(o.seed),
		"seconds":    fmt.Sprint(int(o.window / time.Second)),
		"trace":      fmt.Sprint(btoi(o.traced)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     sourceID(),
		"burst":      burstMode(),
	}
}
