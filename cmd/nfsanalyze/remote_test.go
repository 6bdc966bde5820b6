package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/jobspec"
	"repro/internal/wire/sock"
)

// startAnalysisWorker serves w on loopback, running assignments the way
// cmd/nfsworker does unless w brings a runner of its own, and returns
// its address. The worker is in-process so the tests control fault
// injection directly.
func startAnalysisWorker(t *testing.T, w *dispatch.Worker) string {
	t.Helper()
	if w.Stream == nil {
		w.Stream = jobspec.RunStream
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(lis)
	t.Cleanup(w.Drain)
	return lis.Addr().String()
}

// mergeableKinds are the kinds -coordinator cuts into pieces.
func mergeableKinds() []string {
	var out []string
	for _, kind := range allKinds {
		if !seqKinds[kind] {
			out = append(out, kind)
		}
	}
	return out
}

// TestRemoteCoordinatorMatchesDirect runs -coordinator -remote against
// healthy in-process workers and checks the rendered tables are
// byte-identical to the single-process run for every mergeable analysis,
// with the pieces dispatched.
func TestRemoteCoordinatorMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pdir := filepath.Join(dir, "pieces")
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		t.Fatal(err)
	}
	pieces := splitQuiescent(t, path, 4, pdir, true)
	addrs := startAnalysisWorker(t, &dispatch.Worker{}) + "," + startAnalysisWorker(t, &dispatch.Worker{})
	for _, kind := range mergeableKinds() {
		want := directOutput(t, kind, path)
		var out, errb bytes.Buffer
		args := append([]string{"-analysis", kind, "-coordinator", "-remote", addrs, "-workers", "4"}, pieces...)
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", kind, err, errb.String())
		}
		if out.String() != want {
			t.Fatalf("%s: remote output differs:\n--- direct ---\n%s--- remote ---\n%s", kind, want, out.String())
		}
		if !strings.Contains(errb.String(), "dispatch finished: 4/4 pieces remote") {
			t.Fatalf("%s: stderr does not show every piece dispatched: %s", kind, errb.String())
		}
	}
}

// TestOrderDependentKindsRunInProcess: under -coordinator, local or
// -remote, an order-dependent analysis is the plain run over all the
// files — the same bytes, the coordinator says so on stderr, and no
// assignment reaches a worker.
func TestOrderDependentKindsRunInProcess(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pdir := filepath.Join(dir, "pieces")
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		t.Fatal(err)
	}
	pieces := splitQuiescent(t, path, 4, pdir, true)
	var assigned atomic.Int32
	counting := func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
		assigned.Add(1)
		return jobspec.RunStream(ctx, spec, files)
	}
	addrs := startAnalysisWorker(t, &dispatch.Worker{Stream: counting}) + "," +
		startAnalysisWorker(t, &dispatch.Worker{Stream: counting})
	for kind := range seqKinds {
		want := directOutput(t, kind, path)
		for _, mode := range [][]string{{"-workers", "4"}, {"-workers", "4", "-remote", addrs}} {
			var out, errb bytes.Buffer
			args := append(append([]string{"-analysis", kind, "-coordinator"}, mode...), pieces...)
			if err := run(args, &out, &errb); err != nil {
				t.Fatalf("%s %v: %v (stderr: %s)", kind, mode, err, errb.String())
			}
			if out.String() != want {
				t.Fatalf("%s %v: output differs:\n--- direct ---\n%s--- coordinator ---\n%s", kind, mode, want, out.String())
			}
			if !strings.Contains(errb.String(), "runs in this process") || strings.Contains(errb.String(), "pieces over") {
				t.Fatalf("%s %v: stderr does not say the analysis ran in process: %s", kind, mode, errb.String())
			}
		}
	}
	if n := assigned.Load(); n != 0 {
		t.Fatalf("%d assignments reached a worker", n)
	}
}

// TestCoordinatorDropsOldProtocolWorker: a worker whose hello carries
// protocol version 1, which expected a resume state ahead of a chained
// piece's files, is dropped at registration, and its pieces finish in
// this process with the plain run's bytes.
func TestCoordinatorDropsOldProtocolWorker(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pieces := splitQuiescent(t, path, 2, dir, false)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var dials, assigned atomic.Int32
	var conns sync.WaitGroup
	// accepting closes once the accept loop has returned, so every
	// conns.Add happens before conns.Wait.
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			rc := sock.NewRecordConn(conn)
			rc.WriteRecordParts([]byte{0x01}, []byte(`{"version":1,"host":"old","pid":1}`))
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer conn.Close()
				// The coordinator hangs up after the hello; a frame
				// here would be an assignment sent to a dropped worker.
				if _, err := rc.ReadRecord(); err == nil {
					assigned.Add(1)
				}
			}()
		}
	}()
	want := directOutput(t, "summary", path)
	var out, errb bytes.Buffer
	args := append([]string{"-analysis", "summary", "-coordinator", "-remote", lis.Addr().String()}, pieces...)
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	if out.String() != want {
		t.Fatalf("output differs:\n--- direct ---\n%s--- coordinator ---\n%s", want, out.String())
	}
	log := errb.String()
	if !strings.Contains(log, fmt.Sprintf("protocol version 1 != %d; dropping", dispatch.ProtocolVersion)) ||
		!strings.Contains(log, "0/2 pieces remote") || !strings.Contains(log, "running locally") {
		t.Fatalf("stderr does not show the old worker dropped and its pieces run locally: %s", log)
	}
	lis.Close()
	<-accepting
	conns.Wait()
	if dials.Load() != 1 || assigned.Load() != 0 {
		t.Fatalf("old worker: dialled %d times, sent %d frames after its hello; want 1 and 0", dials.Load(), assigned.Load())
	}
}

// TestRemoteCoordinatorSurvivesFaults drives every injected failure —
// hang past the deadline, killed mid-result-stream, corrupt state
// rejected by checksum — through a flaky worker and checks the output
// stays byte-identical to the single-process run.
func TestRemoteCoordinatorSurvivesFaults(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pdir := filepath.Join(dir, "pieces")
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		t.Fatal(err)
	}
	pieces := splitQuiescent(t, path, 4, pdir, false)
	for _, kind := range []string{"summary", "runs"} {
		want := directOutput(t, kind, path)
		healthy := startAnalysisWorker(t, &dispatch.Worker{})
		flaky := startAnalysisWorker(t, &dispatch.Worker{
			Exit: func(int) {}, // crash = connection death; process survives for retries
			FaultFor: func(seq int) dispatch.Fault {
				return map[int]dispatch.Fault{
					1: dispatch.FaultHang,
					2: dispatch.FaultCrash,
					3: dispatch.FaultCorrupt,
				}[seq]
			},
		})
		var out, errb bytes.Buffer
		args := append([]string{
			"-analysis", kind, "-coordinator",
			"-remote", healthy + "," + flaky,
			"-workers", "4", "-worker-timeout", "2s",
		}, pieces...)
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", kind, err, errb.String())
		}
		if out.String() != want {
			t.Fatalf("%s: output with faults differs:\n--- direct ---\n%s--- faulty ---\n%s", kind, want, out.String())
		}
	}
}

// TestRemoteCoordinatorFallsBackWhenPoolDead points -remote at a dead
// endpoint: every piece must degrade to local execution and the output
// must still be byte-identical.
func TestRemoteCoordinatorFallsBackWhenPoolDead(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pieces := splitQuiescent(t, path, 2, dir, false)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := lis.Addr().String()
	lis.Close()
	for _, kind := range []string{"summary", "runs"} {
		want := directOutput(t, kind, path)
		var out, errb bytes.Buffer
		args := append([]string{"-analysis", kind, "-coordinator", "-remote", dead}, pieces...)
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", kind, err, errb.String())
		}
		if out.String() != want {
			t.Fatalf("%s: fallback output differs:\n--- direct ---\n%s--- fallback ---\n%s", kind, want, out.String())
		}
		if !strings.Contains(errb.String(), "running locally") {
			t.Fatalf("%s: stderr missing local-fallback note: %s", kind, errb.String())
		}
	}
}

// TestPartitionFiles pins the partitioner over size patterns and every
// group count: exactly min(n, len(paths)) groups, contiguous, none
// empty, order preserved — so n = len(paths) makes every file its own
// piece, whatever the sizes (a first file just under the mean used to
// swallow its neighbour and leave the run one piece short).
func TestPartitionFiles(t *testing.T) {
	patterns := map[string][]int{
		"rising":           {100, 200, 300, 400, 500},
		"equal":            {100, 100, 100, 100, 100, 100, 100, 100},
		"small first":      {90, 100, 100, 100, 100, 100, 100, 110},
		"one giant":        {1, 1, 5000, 1, 1, 1},
		"giant last":       {1, 1, 1, 1, 5000},
		"empty files":      {0, 0, 0, 0},
		"single":           {100},
		"tracesplit sizes": {2134, 2170, 2166, 2163, 2170, 2157, 2166, 2190},
	}
	for name, sizes := range patterns {
		dir := t.TempDir()
		var paths []string
		for i, size := range sizes {
			p := filepath.Join(dir, fmt.Sprintf("f%d", i))
			if err := os.WriteFile(p, bytes.Repeat([]byte("x"), size), 0o600); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		for n := 1; n <= len(paths)+2; n++ {
			groups := partitionFiles(paths, n)
			if want := min(n, len(paths)); len(groups) != want {
				t.Errorf("%s, n=%d: %d groups, want %d: %v", name, n, len(groups), want, groups)
			}
			var flat []string
			for _, g := range groups {
				if len(g) == 0 {
					t.Errorf("%s, n=%d: empty group in %v", name, n, groups)
				}
				if n >= len(paths) && len(g) != 1 {
					t.Errorf("%s, n=%d: a piece of %d files when every file can be its own", name, n, len(g))
				}
				flat = append(flat, g...)
			}
			if strings.Join(flat, ",") != strings.Join(paths, ",") {
				t.Errorf("%s, n=%d: groups reorder or drop files: %v", name, n, groups)
			}
		}
	}
}
