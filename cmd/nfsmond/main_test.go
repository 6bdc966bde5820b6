package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
)

// writeBurst appends n call/reply pairs to path, xids [from, from+n).
func writeBurst(t *testing.T, path string, from, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	writePairs(t, f, from, n)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// writePairs writes n call/reply pairs to f, xids [from, from+n).
func writePairs(t *testing.T, f io.Writer, from, n int) {
	t.Helper()
	w := core.NewWriter(f)
	for i := from; i < from+n; i++ {
		call := &core.Record{
			Time: 1000 + float64(i), Kind: core.KindCall,
			Client: 0x0a000001, Port: 1023, Proto: core.ProtoTCP,
			XID: uint32(i), Version: 3, Proc: core.MustProc("read"),
			FH: core.InternFH("feed0001"), Offset: uint64(i) * 8192, Count: 8192,
		}
		reply := &core.Record{
			Time: 1000 + float64(i) + 0.002, Kind: core.KindReply,
			Client: 0x0a000001, Port: 1023, Proto: core.ProtoTCP,
			XID: uint32(i), Version: 3, Proc: core.MustProc("read"),
			RCount: 8192, Size: 1 << 20, FileID: 42,
		}
		w.Write(call)
		w.Write(reply)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// metricValue extracts one metric's value from a Prometheus exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s missing from:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s = %q: %v", name, m[1], err)
	}
	return v
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitServing polls stderr output for the bound address.
func waitServing(t *testing.T, stderr *syncBuffer) string {
	t.Helper()
	re := regexp.MustCompile(`serving on http://(\S+)`)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never reported its address; stderr:\n%s", stderr.String())
	return ""
}

// syncBuffer is a mutex-guarded bytes.Buffer: run's stderr is written
// from the daemon goroutine while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func newSyncBuffer() *syncBuffer { return &syncBuffer{} }

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "live.trace")
	writeBurst(t, trace, 0, 50)

	stop := make(chan os.Signal, 1)
	var stdout bytes.Buffer
	stderr := newSyncBuffer()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-i", trace, "-follow", "-poll", "5ms",
			"-listen", "127.0.0.1:0", "-window", "10", "-keep", "8",
			"-analyses", "all",
		}, &stdout, stderr, stop)
	}()
	addr := waitServing(t, stderr)
	base := "http://" + addr

	// Wait until the first burst is ingested. The joiner holds an op
	// until a later record arrives and every earlier call is complete,
	// so at least the early ops are through once records_total reaches
	// 100.
	waitMetric := func(name string, want float64) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			body := httpGet(t, base+"/metrics")
			if metricValue(t, body, name) >= want {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %v:\n%s", name, want, body)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	body := waitMetric("nfsmond_records_total", 100)

	// Counters must be monotonic across appends.
	ops1 := metricValue(t, body, "nfsmond_ops_total")
	writeBurst(t, trace, 50, 50)
	body = waitMetric("nfsmond_records_total", 200)
	ops2 := metricValue(t, body, "nfsmond_ops_total")
	if ops2 < ops1 {
		t.Fatalf("ops_total went backwards: %v then %v", ops1, ops2)
	}
	if lag := metricValue(t, body, "nfsmond_window_lag_seconds"); lag < 0 || lag >= 10 {
		t.Fatalf("window lag %v outside [0, width)", lag)
	}
	if !strings.Contains(body, `nfsmond_proc_ops_total{proc="read"}`) {
		t.Fatalf("per-proc counter missing:\n%s", body)
	}

	// The summary endpoint reflects a consistent snapshot: all ops so
	// far are reads, and the joiner matched every pair.
	var sum struct {
		Ops     int64 `json:"ops"`
		Summary struct {
			TotalOps int64  `json:"total_ops"`
			ReadOps  int64  `json:"read_ops"`
			Bytes    uint64 `json:"bytes_read"`
		} `json:"summary"`
		Join struct {
			Matched        int64 `json:"matched"`
			UnmatchedCalls int64 `json:"unmatched_calls"`
		} `json:"join"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/api/summary")), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Summary.TotalOps != sum.Ops {
		t.Fatalf("summary total %d != stream ops %d", sum.Summary.TotalOps, sum.Ops)
	}
	if sum.Summary.ReadOps != sum.Summary.TotalOps {
		t.Fatalf("expected all reads, got %d/%d", sum.Summary.ReadOps, sum.Summary.TotalOps)
	}
	if sum.Join.Matched != 100 || sum.Join.UnmatchedCalls != 0 {
		t.Fatalf("join = %+v, want 100 matched, 0 unmatched", sum.Join)
	}

	// Windows endpoint: ops at t=1000..1099 with width 10 span ten
	// windows; the ring keeps 8.
	var win struct {
		Width   float64 `json:"width_seconds"`
		Windows []struct {
			Start float64 `json:"start"`
			Ops   int64   `json:"ops"`
		} `json:"windows"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/api/windows")), &win); err != nil {
		t.Fatal(err)
	}
	if win.Width != 10 || len(win.Windows) == 0 || len(win.Windows) > 8 {
		t.Fatalf("windows = %+v", win)
	}

	// Every report takes one snapshot, and its fork and finish times
	// add up in their counters.
	snapCounters := []string{"nfsmond_snapshots_total",
		"nfsmond_snapshot_fork_seconds_total", "nfsmond_snapshot_finish_seconds_total"}
	body = httpGet(t, base+"/metrics")
	var before []float64
	for _, name := range snapCounters {
		before = append(before, metricValue(t, body, name))
	}
	var analyses map[string]json.RawMessage
	if err := json.Unmarshal([]byte(httpGet(t, base+"/api/analyses")), &analyses); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"runs", "reorder", "blocklife"} {
		if analyses[key] == nil {
			t.Fatalf("/api/analyses has no %q", key)
		}
	}
	body = httpGet(t, base+"/metrics")
	for i, name := range snapCounters {
		if after := metricValue(t, body, name); after <= before[i] {
			t.Fatalf("%s = %v after GET /api/analyses, %v before", name, after, before[i])
		}
	}

	// Clean shutdown: the final summary and join line land on stdout.
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(stdout.String(), "join: 100 calls, 100 replies, 0 unmatched calls") {
		t.Fatalf("final report missing join line:\n%s", stdout.String())
	}
}

func TestDaemonStaticInput(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "static.trace")
	writeBurst(t, trace, 0, 30)

	stop := make(chan os.Signal, 1)
	var stdout bytes.Buffer
	stderr := newSyncBuffer()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-i", trace, "-listen", "127.0.0.1:0", "-window", "60",
		}, &stdout, stderr, stop)
	}()
	addr := waitServing(t, stderr)
	base := "http://" + addr

	// Static mode drains to EOF and keeps serving the final state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := httpGet(t, base+"/metrics")
		if metricValue(t, body, "nfsmond_ops_total") == 30 &&
			metricValue(t, body, "nfsmond_join_matched_total") == 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("static ingest incomplete:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var sl struct {
		Summary struct {
			TotalOps int64 `json:"total_ops"`
		} `json:"summary"`
	}
	// Ops at t=1000..1029 straddle the anchored windows [960,1020) and
	// [1020,1080); merging the newest two covers them all.
	if err := json.Unmarshal([]byte(httpGet(t, base+"/api/sliding?k=2")), &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Summary.TotalOps != 30 {
		t.Fatalf("sliding(2) ops = %d, want 30", sl.Summary.TotalOps)
	}

	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestAnalysisSets: -analyses takes the catalog kinds with a JSON form
// and all, always serves summary first, keeps catalog order whatever
// the flag's order, and refuses an unknown kind and one without a JSON
// form with an error that names the kinds it serves.
func TestAnalysisSets(t *testing.T) {
	kinds := func(list string) []string {
		t.Helper()
		sets, err := analysisSets(list)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range sets {
			out = append(out, s.Spec.Kind)
		}
		return out
	}
	if got, want := kinds("all"), jobspec.JSONKinds(); !slices.Equal(got, want) {
		t.Fatalf("all = %v, want %v", got, want)
	}
	if got := kinds("all"); !slices.Equal(got, []string{"summary", "hierarchy", "runs", "blocklife", "reorder", "peak", "mailbox"}) {
		t.Fatalf("all = %v, want the seven served kinds in registration order", got)
	}
	if got := kinds("mailbox, hierarchy"); !slices.Equal(got, []string{"summary", "hierarchy", "mailbox"}) {
		t.Fatalf("mailbox,hierarchy = %v, want summary first, then catalog order", got)
	}
	for _, bad := range []string{"summary,bogus", "hourly", "names"} {
		_, err := analysisSets(bad)
		if err == nil || !strings.Contains(err.Error(), "nfsmond serves "+strings.Join(jobspec.JSONKinds(), ", ")) {
			t.Fatalf("%s: error %v does not name the served kinds", bad, err)
		}
	}
}
