package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/tools/perf/span"
)

// smoke runs the whole benchmark at the smoke scale — tiny traces, one
// timed pass, all seven workloads — through realMain, the way the
// command line does.
func smoke(t *testing.T, extra ...string) *resultSet {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs every shipped binary")
	}
	out := filepath.Join(t.TempDir(), "results.json")
	args := append([]string{"-scale", "smoke", "-passes", "1", "-seed", "7", "-out", out}, extra...)
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	set, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result set, want %d", len(set.Workloads), len(workloads))
	}
	for _, w := range set.Workloads {
		if w.Failed != 0 || w.FailShare != 0 || w.Attempted != w.UnitsPerPass || len(w.Passes) != 1 {
			t.Errorf("%s: attempted %d, failed %d, %d passes, notes %v", w.Name, w.Attempted, w.Failed, len(w.Passes), w.Notes)
		}
	}
	return set
}

func TestSmokeEndToEnd(t *testing.T) {
	set := smoke(t)
	for _, w := range set.Workloads {
		for _, d := range endToEnd {
			if s := w.Metrics[d.Name]; s.Value <= 0 || s.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, d.Name, s, d.Unit)
			}
		}
		if n := len(w.Metrics["setup_s"].Samples); n < minSetUps || n > maxSetUps {
			t.Errorf("%s: %d set-ups timed, want %d..%d", w.Name, n, minSetUps, maxSetUps)
		}
	}
	// A set compares clean against itself.
	var out bytes.Buffer
	if code := report(set, set, &out); code != 0 {
		t.Errorf("self-comparison exits %d:\n%s", code, out.String())
	}
}

func TestSmokeTraced(t *testing.T) {
	set := smoke(t, "-trace")
	// What each workload's traced run must have measured, beyond
	// whatever else it reports.
	must := map[string][]string{
		"analyze_text":   {"core.decode_serial_ns_per_rec", "pipeline.join_ns_per_rec", "pipeline.route_ns_per_op", "pipeline.single_thread_records_per_s", "pipeline.bottleneck_share", "perf.inproc_over_cli", "workload.gen_recs_per_s"},
		"analyze_binary": {"core.decode_parallel_ns_per_rec", "core.binary_write_ns_per_rec", "pipeline.finish_ms", "runtime.allocs_per_rec"},
		"analyze_dist":   {"core.traceset_merge_ns_per_rec", "jobspec.runfiles_ms_per_piece", "state.bytes_per_piece", "pipeline.merge_partials_ms", "dispatch.run_ms", "dispatch.assignments", "nfsanalyze.local_coord_wall_s", "nfsanalyze.dist_overhead_ratio"},
		"capture_pcap":   {"pcap.read_ns_per_pkt", "wire.decode_ns_per_pkt", "wire.defrag_ns_per_pkt", "rpc.decode_ns_per_msg", "nfs.parse_ns_per_msg", "capture.sniffer_ns_per_pkt", "core.marshal_ns_per_rec", "anon.record_ns_per_rec"},
		"live_monitor":   {"pipeline.push_join_ns_per_rec", "pipeline.live_feed_ns_per_op", "window.ring_add_ns_per_op", "pipeline.fork_p50_ms", "pipeline.snapshot_finish_ms", "nfsmond.scrape_p50_ms", "nfsmond.scrape_full_ms"},
		"serve_read":     {"nfs.encode_args_ns", "wire.write_record_ns", "server.handle_ns", "vfs.op_ns", "server.inproc_ns_per_op", "server.allocs_per_op", "vfs.parallel_speedup", "client.read_p50_us", "client.meta_p50_us"},
		"serve_write":    {"nfs.decode_args_ns", "wire.read_record_ns", "rpc.decode_reply_ns", "wire.bytes_per_op", "client.write_p50_us"},
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range set.Workloads {
		if len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want all %d", w.Name, len(w.PerLayer), len(perLayer))
		}
		for _, name := range must[w.Name] {
			if w.PerLayer[name] <= 0 {
				t.Errorf("%s: %s = %v, want it measured", w.Name, name, w.PerLayer[name])
			}
		}
		for _, name := range []string{"dispatch.retries", "dispatch.speculations", "capture.decode_error_share", "capture.orphan_reply_share"} {
			if w.PerLayer[name] != 0 {
				t.Errorf("%s: %s = %v, want 0", w.Name, name, w.PerLayer[name])
			}
		}
		raw, err := os.ReadFile(filepath.Join(root, "tools", "perf", "out", "trace_"+w.Name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var spans []span.Span
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) < 3 {
			t.Errorf("%s: span file holds %d spans (%v)", w.Name, len(spans), err)
		}
		for _, s := range spans {
			if s.Workload != w.Name || s.EndNS < s.StartNS || s.Parent >= len(spans) {
				t.Errorf("%s: bad span %+v", w.Name, s)
				break
			}
		}
	}
}
