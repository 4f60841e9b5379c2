package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"github.com/ftsfc/ftc/internal/core"
)

// metricDef is one reported metric. bound applies to end-to-end metrics:
// the share of the parent's median by which a change may worsen it.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd metrics are what a user of the chain sees; untraced runs report
// them for every workload.
var endToEnd = []metricDef{
	{"throughput_pps", "pps", "higher", 0.2},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p95_us", "us", "lower", 0.25},
	{"delivered_frac", "frac", "higher", 0.05},
	{"goodput_ratio", "ratio", "higher", 0.05},
	{"heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from the traced run (and, for orch.recovery_*, from
// the untraced pass it makes first). Metrics a workload does not exercise
// read 0.
var perLayer = []metricDef{
	{name: "netsim.ingress_wait_us_p50", unit: "us"},
	{name: "netsim.queue_depth_p99", unit: "frames"},
	{name: "netsim.tail_drops", unit: "count"},
	{name: "netsim.clamps", unit: "count"},
	{name: "sched.steals_per_kpkt", unit: "1/kpkt"},
	{name: "sched.burst_mean", unit: "frames"},
	{name: "core.hold_us_p50", unit: "us"},
	{name: "core.hold_us_p99", unit: "us"},
	{name: "core.propagating_per_kpkt", unit: "1/kpkt"},
	{name: "core.piggyback_bytes_per_pkt", unit: "B/pkt"},
	{name: "core.repairs_per_kpkt", unit: "1/kpkt"},
	{name: "core.duplicates_per_kpkt", unit: "1/kpkt"},
	{name: "core.apply_timeouts", unit: "count"},
	{name: "core.spilled_logs", unit: "count"},
	{name: "core.held_p99", unit: "pkts"},
	{name: "core.fwd_pending_p99", unit: "logs"},
	{name: "core.stale_gen", unit: "count"},
	{name: "core.fenced_held", unit: "count"},
	{name: "core.mb_errors", unit: "count"},
	{name: "state.exec_us_p50", unit: "us"},
	{name: "state.exec_us_p99", unit: "us"},
	{name: "state.txn_self_us_p50", unit: "us"},
	{name: "state.txn_attempts_per_pkt", unit: "ratio"},
	{name: "state.apply_us_p50", unit: "us"},
	{name: "state.apply_updates_per_call", unit: "ratio"},
	{name: "state.expired_per_s", unit: "1/s"},
	{name: "state.delta_update_frac", unit: "frac"},
	{name: "state.live_keys", unit: "count"},
	{name: "state.snapshot_ms_p50", unit: "ms"},
	{name: "state.restore_ms_p50", unit: "ms"},
	{name: "orch.recovery_ms_p50", unit: "ms"},
	{name: "orch.recovery_ms_p90", unit: "ms"},
	{name: "orch.recovery_lost_pkts", unit: "pkts"},
	{name: "orch.recoveries", unit: "count"},
	{name: "orch.unsettled_crashes", unit: "count"},
	{name: "orch.init_ms_p50", unit: "ms"},
	{name: "orch.fetch_ms_p50", unit: "ms"},
	{name: "orch.reroute_ms_p50", unit: "ms"},
	{name: "mbox.Monitor.process_us_p50", unit: "us"},
	{name: "mbox.MazuNAT.process_us_p50", unit: "us"},
	{name: "mbox.SimpleNAT.process_us_p50", unit: "us"},
	{name: "mbox.Firewall.process_us_p50", unit: "us"},
	{name: "trans.syscalls_per_frame", unit: "ratio"},
	{name: "trans.frames_per_dgram", unit: "ratio"},
	{name: "trans.tunnel_goodput", unit: "ratio"},
	{name: "trans.truncated_dgrams", unit: "count"},
	{name: "trans.oversize_drops", unit: "count"},
	{name: "gen.lag_us_p99", unit: "us"},
	{name: "latency.p99_us", unit: "us"},
	{name: "host.steal_frac", unit: "frac"},
	{name: "host.slices_kept", unit: "count"},
	{name: "latency.samples", unit: "count"},
	{name: "trace.overhead_frac", unit: "frac"},
	{name: "trace.goodput_ratio", unit: "ratio"},
}

// runSeconds is the measurement window BENCHMARK.json asks for.
const runSeconds = 12

// printSpec prints BENCHMARK.json from the definitions above.
func printSpec() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "ftcbench/run.sh"}, Paths: []string{"ftcbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, layerBetter(m.name)})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// layerBetter is the direction a per-layer metric improves in.
func layerBetter(name string) string {
	for _, s := range []string{"frames_per_dgram", "tunnel_goodput", "burst_mean", "expired_per_s", "goodput_ratio", "delta_update_frac"} {
		if strings.HasSuffix(name, s) {
			return "higher"
		}
	}
	return "lower"
}

// burstMode names the data-plane burst setting the chains run with.
func burstMode() string {
	cfg := core.Config{}.WithDefaults()
	if cfg.Burst == 0 {
		return fmt.Sprintf("adaptive(max=%d)", cfg.MaxBurst)
	}
	return fmt.Sprint(cfg.Burst)
}

// sourceID identifies the code under test: the git commit when the checkout
// is a repository, otherwise a digest of every Go source and module file.
func sourceID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
