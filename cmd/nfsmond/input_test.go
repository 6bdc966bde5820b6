package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cutgolden"
	"repro/internal/workload"
)

// testDaemon is one run of the daemon on a loopback port.
type testDaemon struct {
	base           string
	stop           chan os.Signal
	done           chan error
	stdout, stderr *syncBuffer
}

func startDaemon(t *testing.T, args ...string) *testDaemon {
	t.Helper()
	d := &testDaemon{stop: make(chan os.Signal, 1), done: make(chan error, 1),
		stdout: newSyncBuffer(), stderr: newSyncBuffer()}
	args = append(args, "-listen", "127.0.0.1:0")
	go func() { d.done <- run(args, d.stdout, d.stderr, d.stop) }()
	d.base = "http://" + waitServing(t, d.stderr)
	return d
}

// waitRecords polls /metrics until the daemon has ingested n records.
func (d *testDaemon) waitRecords(t *testing.T, n float64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		body := httpGet(t, d.base+"/metrics")
		if metricValue(t, body, "nfsmond_records_total") == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("nfsmond_records_total never reached %v:\n%s", n, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitDrained waits for a static input to be ingested to its end.
func (d *testDaemon) waitDrained(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !strings.Contains(d.stderr.String(), "input drained"); {
		select {
		case err := <-d.done:
			t.Fatalf("run ended before the input drained: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("input never drained; stderr:\n%s", d.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shutdown stops the daemon and returns its final report.
func (d *testDaemon) shutdown(t *testing.T) string {
	t.Helper()
	d.stop <- syscall.SIGTERM
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	return d.stdout.String()
}

// TestDaemonReadsEveryFormat feeds one generated trace as text, binary
// and gzip-compressed text: -i reads all three, as nfsanalyze does, and
// each gives the same drained /api/analyses body and final report. The
// text form's bodies and report are also pinned in absolute terms by
// goldens in testdata, cut with the binary of commit b563859, before
// the analysis kinds moved into internal/jobspec:
//
//	nfsmond -i t.trace -analyses all -workers 2
//	curl /api/analyses > analyses.golden
//	curl /api/summary > summary.golden
//	curl '/api/sliding?k=2' > sliding.golden
//	stdout at shutdown > report.golden
//
// A missing golden is written and the test fails, so delete one and run
// the test once to cut it again.
func TestDaemonReadsEveryFormat(t *testing.T) {
	sink := &client.SliceSink{}
	workload.NewCampus(workload.DefaultCampusConfig(4, 1.5, 20011021), sink).Run()
	var text, bin, gz bytes.Buffer
	if err := core.WriteAll(&text, sink.Records); err != nil {
		t.Fatal(err)
	}
	bw := core.NewBinaryWriter(&bin)
	for _, r := range sink.Records {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(&gz)
	zw.Write(text.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var wantBody, wantReport string
	for i, form := range []struct {
		name string
		data []byte
	}{{"t.trace", text.Bytes()}, {"t.btrace", bin.Bytes()}, {"t.trace.gz", gz.Bytes()}} {
		path := filepath.Join(dir, form.name)
		if err := os.WriteFile(path, form.data, 0o644); err != nil {
			t.Fatal(err)
		}
		d := startDaemon(t, "-i", path, "-analyses", "all", "-workers", "2")
		d.waitDrained(t)
		body := httpGet(t, d.base+"/api/analyses")
		summary := httpGet(t, d.base+"/api/summary")
		sliding := httpGet(t, d.base+"/api/sliding?k=2")
		report := d.shutdown(t)
		if i == 0 {
			for name, got := range map[string]string{"analyses": body, "summary": summary,
				"sliding": sliding, "report": report} {
				cutgolden.Check(t, filepath.Join("testdata", name+".golden"), got)
			}
			var got struct{ Ops int64 }
			if err := json.Unmarshal([]byte(body), &got); err != nil || got.Ops == 0 {
				t.Fatalf("%s: /api/analyses has no ops (%v):\n%s", form.name, err, body)
			}
			if lines := strings.Split(strings.TrimSpace(report), "\n"); len(lines) < 2 ||
				!strings.HasPrefix(lines[len(lines)-1], "join: ") {
				t.Fatalf("%s: final report lacks a summary and a join line:\n%s", form.name, report)
			}
			wantBody, wantReport = body, report
			continue
		}
		if body != wantBody {
			t.Errorf("%s: /api/analyses differs from the text trace's:\n%s\nwant\n%s", form.name, body, wantBody)
		}
		if report != wantReport {
			t.Errorf("%s: final report differs from the text trace's:\n%s\nwant\n%s", form.name, report, wantReport)
		}
	}
}

// swapStdin points os.Stdin at a pipe that stays open until the test
// ends, and returns its write end.
func swapStdin(t *testing.T) *os.File {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = r
	t.Cleanup(func() {
		os.Stdin = old
		w.Close()
		r.Close()
	})
	return w
}

// TestDaemonStdinLive writes far fewer records than one read-ahead
// batch to a stdin that stays open: the daemon must ingest them all
// without waiting for more input or an end of stream.
func TestDaemonStdinLive(t *testing.T) {
	w := swapStdin(t)
	d := startDaemon(t, "-i", "-")
	writePairs(t, w, 0, 30)
	d.waitRecords(t, 60)
	if report := d.shutdown(t); !strings.Contains(report, "join: 30 calls, 30 replies, 0 unmatched calls") {
		t.Fatalf("final report:\n%s", report)
	}
}

// TestDaemonStdinSilentStop stops a daemon whose stdin never sent a
// byte: sniffing the format must not keep run from stopping, and the
// final report still comes out.
func TestDaemonStdinSilentStop(t *testing.T) {
	swapStdin(t)
	d := startDaemon(t, "-i", "-")
	if report := d.shutdown(t); !strings.Contains(report, "join: 0 calls, 0 replies, 0 unmatched calls") {
		t.Fatalf("final report:\n%s", report)
	}
}
