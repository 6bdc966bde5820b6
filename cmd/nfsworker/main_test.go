package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
)

func TestParseFlaky(t *testing.T) {
	cases := []struct {
		in  string
		bad bool
		// probes maps an assignment sequence number to the expected fault.
		probes map[int]dispatch.Fault
	}{
		{in: "", probes: nil},
		{in: "crash:1", probes: map[int]dispatch.Fault{1: dispatch.FaultCrash, 2: dispatch.FaultNone}},
		{in: "crash:1,corrupt:3", probes: map[int]dispatch.Fault{
			1: dispatch.FaultCrash, 2: dispatch.FaultNone, 3: dispatch.FaultCorrupt}},
		{in: "hang", probes: map[int]dispatch.Fault{1: dispatch.FaultHang, 7: dispatch.FaultHang}},
		{in: "hang, crash:2", probes: map[int]dispatch.Fault{
			1: dispatch.FaultHang, 2: dispatch.FaultCrash}},
		{in: "explode:1", bad: true},
		{in: "crash:0", bad: true},
		{in: "crash:x", bad: true},
		{in: "crash:1,hang:1", bad: true},
		{in: "hang,crash", bad: true},
	}
	for _, c := range cases {
		f, err := parseFlaky(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("parseFlaky(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFlaky(%q): %v", c.in, err)
			continue
		}
		if c.probes == nil {
			if f != nil {
				t.Errorf("parseFlaky(%q): want nil hook for empty schedule", c.in)
			}
			continue
		}
		for seq, want := range c.probes {
			if got := f(seq); got != want {
				t.Errorf("parseFlaky(%q)(%d) = %v, want %v", c.in, seq, got, want)
			}
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var errb bytes.Buffer
	if code := run([]string{"-flaky", "explode"}, &errb); code != 2 {
		t.Fatalf("bad -flaky: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"stray-arg"}, &errb); code != 2 {
		t.Fatalf("stray argument: exit %d, want 2", code)
	}
}

// syncWriter lets the daemon goroutine log safely while the test reads
// what it wrote.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
	w   io.Writer // tee for the address scraper; may be nil
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		s.w.Write(p)
	}
	return s.buf.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// TestServeAndDrain boots the daemon exactly as main would — run()
// with -listen :0 — scrapes the bound address from its log line,
// completes one real analysis assignment against it over TCP, then
// delivers SIGTERM and watches the drain finish cleanly.
func TestServeAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end daemon test")
	}
	pr, pw := io.Pipe()
	logw := &syncWriter{w: pw}
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-listen", "127.0.0.1:0"}, logw)
		pw.Close()
	}()

	// Scrape "nfsworker: listening on ADDR (pid N)".
	var addr string
	scanner := bufio.NewScanner(pr)
	re := regexp.MustCompile(`listening on (\S+)`)
	for scanner.Scan() {
		if m := re.FindStringSubmatch(scanner.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listening line in daemon log: %s", logw)
	}
	go io.Copy(io.Discard, pr) // keep the tee from blocking

	// One real assignment: a summary analysis over a generated trace.
	dir := t.TempDir()
	scale := repro.SmallScale()
	scale.Days = 0.25
	records := repro.GenerateCampusRecords(scale)
	var buf bytes.Buffer
	if err := repro.WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "campus.trace")
	if err := os.WriteFile(trace, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	spec := jobspec.Spec{Kind: "summary"}
	specJSON, _ := json.Marshal(spec)
	results, stats, err := dispatch.Run(context.Background(), dispatch.Config{
		Addrs: []string{addr},
	}, []dispatch.Task{{ID: 0, Spec: specJSON, Files: []string{trace}}})
	if err != nil || len(results) != 1 {
		t.Fatalf("dispatch against daemon: %v (%d results)\n%s", err, len(results), logw)
	}
	if stats.Completed != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if _, err := jobspec.DecodeState("summary", results[0].State); err != nil {
		t.Fatalf("daemon state: %v", err)
	}

	// SIGTERM: the signal handler registered by run() must drain and
	// let run() return 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("drain exit code %d\n%s", code, logw)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM\n%s", logw)
	}
	log := logw.String()
	if !strings.Contains(log, "draining") || !strings.Contains(log, "drained, exiting") {
		t.Fatalf("drain not logged:\n%s", log)
	}
}

// rendered decodes a serialized state and renders it the way the
// coordinator's merge tail would: metadata, join statistics and tables.
// State bytes are canonical — the same input at the same shard count
// writes the same bytes in any process — so states compare byte for
// byte, and this shows what differs.
func rendered(t *testing.T, spec jobspec.Spec, state []byte) string {
	t.Helper()
	set, err := jobspec.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := jobspec.DecodeState(spec.Kind, state)
	if err != nil {
		t.Fatal(err)
	}
	stats, join, err := pipeline.MergePartials(set.Analyzers, []*pipeline.Partial{p})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "%+v\n%+v\n", stats, join)
	set.Render(&out, stats, join)
	return out.String()
}

// TestStreamedPieceEqualsRunFiles: a piece analysed by a worker while it
// arrives yields the state jobspec.RunFiles computes from the same files
// on disk — byte for byte — for a two-file piece (a k-way
// merge fed by two queues, the second filling only after the first is
// through), a gzip piece and a binary piece.
func TestStreamedPieceEqualsRunFiles(t *testing.T) {
	dir := t.TempDir()
	scale := repro.SmallScale()
	scale.Days = 0.5
	records := repro.GenerateCampusRecords(scale)
	half := len(records) / 2
	write := func(name string, recs []*core.Record, binary, gz bool) string {
		t.Helper()
		var buf bytes.Buffer
		var out io.Writer = &buf
		var zw *gzip.Writer
		if gz {
			zw = gzip.NewWriter(&buf)
			out = zw
		}
		w := core.NewFormatWriter(out, binary)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if gz {
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	first, second := write("a.trace", records[:half], false, false), write("b.trace", records[half:], false, false)
	zipped, binary := write("all.trace.gz", records, false, true), write("all.btrace", records, true, false)

	ctx := context.Background()
	cases := []struct {
		name  string
		spec  jobspec.Spec
		files []string
	}{
		{"two files", jobspec.Default("runs"), []string{first, second}},
		{"gzip", jobspec.Default("summary"), []string{zipped}},
		{"binary", jobspec.Default("names"), []string{binary}},
	}
	tasks := make([]dispatch.Task, len(cases))
	for i, tc := range cases {
		specJSON, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = dispatch.Task{ID: i, Spec: specJSON, Files: tc.files}
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &dispatch.Worker{Stream: jobspec.RunStream}
	go w.Serve(lis)
	t.Cleanup(w.Drain)
	results, stats, err := dispatch.Run(ctx, dispatch.Config{Addrs: []string{lis.Addr().String()}}, tasks)
	if err != nil || len(results) != len(cases) || stats.Retries != 0 {
		t.Fatalf("dispatch: %v, %d results, %+v", err, len(results), stats)
	}
	for _, res := range results {
		tc := cases[res.TaskID]
		want, err := jobspec.RunTask(ctx, tasks[res.TaskID].Spec, tc.files)
		if err != nil {
			t.Fatalf("%s: RunTask: %v", tc.name, err)
		}
		got, ref := rendered(t, tc.spec, res.State), rendered(t, tc.spec, want)
		if !bytes.Equal(res.State, want) || got != ref {
			t.Errorf("%s: streamed state (%d bytes) differs from the state computed from the files (%d bytes):\n--- streamed ---\n%s--- files ---\n%s",
				tc.name, len(res.State), len(want), got, ref)
		}
	}
}
