package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobspec"
)

// splitQuiescent cuts the trace file into n pieces at quiescent
// boundaries (no call awaiting its reply), the same rule
// tools/tracesplit applies, so each piece's calls and replies pair up
// within the piece and per-piece join statistics sum exactly.
func splitQuiescent(t *testing.T, path string, n int, dir string, gz bool) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := core.MergeAll(core.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	type pendingKey struct {
		client uint32
		port   uint16
		xid    uint32
	}
	pending := make(map[pendingKey]int)
	var paths []string
	var buf bytes.Buffer
	tw := core.NewWriter(&buf)
	count := 0
	flush := func() {
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		ext := ".trace"
		data := buf.Bytes()
		if gz {
			ext = ".trace.gz"
			var zbuf bytes.Buffer
			zw := gzip.NewWriter(&zbuf)
			if _, err := zw.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			data = zbuf.Bytes()
		}
		p := filepath.Join(dir, fmt.Sprintf("piece-%03d%s", len(paths), ext))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		buf.Reset()
		tw = core.NewWriter(&buf)
		count = 0
	}
	for i, rec := range records {
		if err := tw.Write(rec); err != nil {
			t.Fatal(err)
		}
		count++
		k := pendingKey{rec.Client, rec.Port, rec.XID}
		switch rec.Kind {
		case core.KindCall:
			pending[k]++
		case core.KindReply:
			if pending[k] > 0 {
				pending[k]--
				if pending[k] == 0 {
					delete(pending, k)
				}
			}
		}
		last := i == len(records)-1
		if !last && len(paths) < n-1 && len(pending) == 0 &&
			int64(i+1) >= int64(len(paths)+1)*int64(len(records))/int64(n) {
			flush()
		}
	}
	if count > 0 {
		flush()
	}
	if len(paths) < 2 && n >= 2 {
		t.Fatalf("trace never quiescent: got %d pieces, wanted %d", len(paths), n)
	}
	return paths
}

var allKinds = jobspec.Kinds()

// seqKinds are the order-dependent analyses: their states only compose
// as a resume chain, never as an independent merge.
var seqKinds = map[string]bool{"blocklife": true, "hierarchy": true, "names": true}

func directOutput(t *testing.T, kind, path string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run([]string{"-i", path, "-analysis", kind}, &out, &errb); err != nil {
		t.Fatalf("%s direct: %v (stderr: %s)", kind, err, errb.String())
	}
	return out.String()
}

// TestPartialMergeMatchesDirect checks the full distributed surface
// per analysis: -partial per piece (independent for parallel-exact
// analyses, a -resume chain for order-dependent ones), then -merge,
// byte-identical to the single run — across 2- and 8-piece partitions.
func TestPartialMergeMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	for _, kind := range allKinds {
		want := directOutput(t, kind, path)
		for _, n := range []int{2, 8} {
			pdir := filepath.Join(dir, fmt.Sprintf("%s-%d", kind, n))
			if err := os.MkdirAll(pdir, 0o755); err != nil {
				t.Fatal(err)
			}
			pieces := splitQuiescent(t, path, n, pdir, false)
			states := make([]string, len(pieces))
			for i, piece := range pieces {
				states[i] = filepath.Join(pdir, fmt.Sprintf("s%d.state", i))
				args := []string{"-analysis", kind, "-i", piece, "-partial", states[i]}
				if seqKinds[kind] && i > 0 {
					args = append(args, "-resume", states[i-1])
				}
				var out, errb bytes.Buffer
				if err := run(args, &out, &errb); err != nil {
					t.Fatalf("%s/%d partial %d: %v (stderr: %s)", kind, n, i, err, errb.String())
				}
				if out.Len() != 0 {
					t.Fatalf("%s/%d partial %d: unexpected stdout %q", kind, n, i, out.String())
				}
			}
			var out, errb bytes.Buffer
			args := append([]string{"-analysis", kind, "-merge"}, states...)
			if err := run(args, &out, &errb); err != nil {
				t.Fatalf("%s/%d merge: %v (stderr: %s)", kind, n, err, errb.String())
			}
			if out.String() != want {
				t.Fatalf("%s/%d: merged output differs:\n--- direct ---\n%s--- merged ---\n%s", kind, n, want, out.String())
			}
		}
	}
}

// TestResumeRendersDirectly checks checkpoint/resume without a merge
// step: analyze piece 1 to a state file, then resume from it over
// piece 2 and render — identical to the uninterrupted run.
func TestResumeRendersDirectly(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pieces := splitQuiescent(t, path, 2, dir, false)
	for _, kind := range allKinds {
		want := directOutput(t, kind, path)
		st := filepath.Join(dir, kind+".state")
		var out, errb bytes.Buffer
		if err := run([]string{"-analysis", kind, "-i", pieces[0], "-partial", st}, &out, &errb); err != nil {
			t.Fatalf("%s checkpoint: %v (stderr: %s)", kind, err, errb.String())
		}
		out.Reset()
		errb.Reset()
		if err := run([]string{"-analysis", kind, "-i", pieces[1], "-resume", st}, &out, &errb); err != nil {
			t.Fatalf("%s resume: %v (stderr: %s)", kind, err, errb.String())
		}
		if out.String() != want {
			t.Fatalf("%s: resumed output differs:\n--- direct ---\n%s--- resumed ---\n%s", kind, want, out.String())
		}
	}
}

// TestMergeChainInAnyOrder: -merge orders a resume chain by its parent
// digests, not by its arguments — every link's stats are cumulative and
// start where the first link's do, so nothing else tells the links
// apart — and every order of a 3-link chain renders the plain run's
// bytes. Two links resumed from the same parent are still no chain.
func TestMergeChainInAnyOrder(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pieces := splitQuiescent(t, path, 3, dir, false)
	want := directOutput(t, "names", path)
	partial := func(name, piece, resume string) string {
		t.Helper()
		st := filepath.Join(dir, name+".state")
		args := []string{"-analysis", "names", "-i", piece, "-partial", st}
		if resume != "" {
			args = append(args, "-resume", resume)
		}
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", name, err, errb.String())
		}
		return st
	}
	a := partial("a", pieces[0], "")
	b := partial("b", pieces[1], a)
	c := partial("c", pieces[2], b)
	for _, order := range [][]string{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
		var out, errb bytes.Buffer
		if err := run(append([]string{"-analysis", "names", "-merge"}, order...), &out, &errb); err != nil {
			t.Fatalf("merge %v: %v", order, err)
		}
		if out.String() != want {
			t.Fatalf("merge %v: output differs:\n--- direct ---\n%s--- merged ---\n%s", order, want, out.String())
		}
	}

	forked := partial("b2", pieces[1], a)
	var out, errb bytes.Buffer
	err := run([]string{"-analysis", "names", "-merge", b, a, forked}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "two pieces resume from the same state") {
		t.Fatalf("two links resumed from one parent: got %v", err)
	}
}

// TestCoordinatorMatchesDirect runs -coordinator with no -remote pool,
// so every piece runs in this process, over a gzip multi-file trace set
// and checks the rendered tables are byte-identical to the plain run —
// every analysis, at one piece, at a piece count that groups files, and
// at more pieces asked for than there are files.
func TestCoordinatorMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pdir := filepath.Join(dir, "pieces")
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		t.Fatal(err)
	}
	pieces := splitQuiescent(t, path, 8, pdir, true)
	for _, kind := range allKinds {
		want := directOutput(t, kind, path)
		for _, workers := range []int{1, 3, len(pieces) + 4} {
			var out, errb bytes.Buffer
			args := append([]string{"-analysis", kind, "-coordinator", "-workers", fmt.Sprint(workers)}, pieces...)
			if err := run(args, &out, &errb); err != nil {
				t.Fatalf("%s/%d workers: %v (stderr: %s)", kind, workers, err, errb.String())
			}
			if out.String() != want {
				t.Fatalf("%s/%d workers: coordinator output differs:\n--- direct ---\n%s--- coordinator ---\n%s", kind, workers, want, out.String())
			}
			if !strings.Contains(errb.String(), "coordinator:") {
				t.Fatalf("%s/%d workers: stderr missing coordinator banner: %s", kind, workers, errb.String())
			}
		}
	}
}

// TestCoordinatorPieceFailures pins what an in-process piece reports
// when it cannot finish: a -worker-timeout that has already expired is a
// deadline error naming the piece and its files, not a hang and not a
// silent success; a damaged trace file is named.
func TestCoordinatorPieceFailures(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pieces := splitQuiescent(t, path, 2, dir, true)

	for _, kind := range []string{"summary", "runs"} {
		var out, errb bytes.Buffer
		args := append([]string{"-analysis", kind, "-coordinator", "-workers", "2", "-worker-timeout", "1ns"}, pieces...)
		err := run(args, &out, &errb)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: expired -worker-timeout: got %v, want a deadline error", kind, err)
		}
		if !strings.Contains(err.Error(), "piece ") || !strings.Contains(err.Error(), "piece-00") {
			t.Fatalf("%s: deadline error %q does not name the piece and its files", kind, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: failed run rendered %q", kind, out.String())
		}
	}

	// A gzip member cut short mid-stream.
	data, err := os.ReadFile(pieces[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pieces[1], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err = run(append([]string{"-analysis", "summary", "-coordinator", "-workers", "2"}, pieces...), &out, &errb)
	if err == nil || !strings.Contains(err.Error(), filepath.Base(pieces[1])) || !strings.Contains(err.Error(), "piece 1") {
		t.Fatalf("corrupt piece file: got %v, want an error naming piece 1 and %s", err, pieces[1])
	}
}

// TestDistributedErrors covers the failure surface: flag conflicts,
// label mismatches, order-dependent independent merges, and damaged
// state files — all structured errors, never panics or silent merges.
func TestDistributedErrors(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	pieces := splitQuiescent(t, path, 2, dir, false)

	mkState := func(kind, piece, out string, resume string) {
		t.Helper()
		args := []string{"-analysis", kind, "-i", piece, "-partial", out}
		if resume != "" {
			args = append(args, "-resume", resume)
		}
		var o, e bytes.Buffer
		if err := run(args, &o, &e); err != nil {
			t.Fatalf("state %s: %v (stderr: %s)", out, err, e.String())
		}
	}
	sumA := filepath.Join(dir, "sum-a.state")
	sumB := filepath.Join(dir, "sum-b.state")
	mkState("summary", pieces[0], sumA, "")
	mkState("summary", pieces[1], sumB, "")

	expectErr := func(args []string, wantSub string) {
		t.Helper()
		var o, e bytes.Buffer
		err := run(args, &o, &e)
		if err == nil {
			t.Fatalf("args %v: expected an error", args)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("args %v: error %q does not mention %q", args, err, wantSub)
		}
	}

	// Flag conflicts.
	expectErr([]string{"-merge", "-partial", "x.state", sumA}, "-merge cannot be combined")
	expectErr([]string{"-coordinator", "-resume", sumA, pieces[0]}, "-coordinator cannot be combined")
	expectErr([]string{"-merge"}, "needs state files")
	expectErr([]string{"-coordinator"}, "needs file inputs")
	expectErr([]string{"-coordinator", "-remote", "127.0.0.1:1,,127.0.0.1:2", pieces[0]}, "empty worker address")
	expectErr([]string{"-coordinator", "-remote", "127.0.0.1:1, ", pieces[0]}, "empty worker address")

	// Label mismatch: summary state fed to a runs merge.
	expectErr([]string{"-analysis", "runs", "-merge", sumA, sumB}, `holds a "summary" analysis`)
	expectErr([]string{"-analysis", "runs", "-i", pieces[1], "-resume", sumA}, `holds a "summary" analysis`)

	// Order-dependent analyses reject independent merges.
	nmA := filepath.Join(dir, "nm-a.state")
	nmB := filepath.Join(dir, "nm-b.state")
	mkState("names", pieces[0], nmA, "")
	mkState("names", pieces[1], nmB, "")
	expectErr([]string{"-analysis", "names", "-merge", nmA, nmB}, "chain the pieces with -resume")

	// A broken chain: two states resumed from the same parent cannot
	// merge as one chain.
	nmB2 := filepath.Join(dir, "nm-b2.state")
	mkState("names", pieces[1], nmB2, nmA)
	nmB3 := filepath.Join(dir, "nm-b3.state")
	mkState("names", pieces[1], nmB3, nmA)
	expectErr([]string{"-analysis", "names", "-merge", nmA, nmB2, nmB3}, "chained states")

	// Damaged state file: flip one byte mid-file.
	data, err := os.ReadFile(sumA)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	bad := filepath.Join(dir, "bad.state")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	expectErr([]string{"-analysis", "summary", "-merge", bad, sumB}, "damaged")

	// Truncated state file.
	trunc := filepath.Join(dir, "trunc.state")
	if err := os.WriteFile(trunc, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	var o, e bytes.Buffer
	if err := run([]string{"-analysis", "summary", "-merge", trunc, sumB}, &o, &e); err == nil {
		t.Fatal("truncated state accepted")
	}
}
