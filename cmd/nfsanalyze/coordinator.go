package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
)

// Coordinator mode: cut the trace set's files into pieces, turn every
// piece into a serialized partial state, then merge the states and
// render — byte-identical to one process reading everything. There is
// one way to run a piece (jobspec.RunTask over files, which is
// jobspec.RunStream over readers) and two places to run it: a pool of
// remote nfsworker daemons reached over TCP via internal/dispatch
// (-remote host:port,...), which are sent the trace bytes so no shared
// filesystem is needed and analyse them as they arrive, and this
// process. The pool goes first and may be empty; whatever it leaves
// without a state — every piece when there is no -remote, the pieces it
// gave up on when its workers died — runs here, all pieces in parallel.
// Only mergeable analyses come here: run sends an order-dependent one
// (blocklife, hierarchy, names) through the plain direct run instead,
// since its states compose only as a serial chain, which would read
// every byte in order in this process anyway.

// coordConfig carries everything the coordinator needs.
type coordConfig struct {
	set     *jobspec.Set
	paths   []string
	workers int
	timeout time.Duration
	remote  []string
}

// partitionFiles cuts paths into min(n, len(paths)) contiguous groups
// of near-equal byte size (contiguous so a lexically sorted set of daily
// files gives each piece one stretch of time). Every group gets at least
// one file, so n = len(paths) makes every file a piece.
func partitionFiles(paths []string, n int) [][]string {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(paths) {
		n = len(paths)
	}
	sizes := make([]int64, len(paths))
	var total int64
	for i, p := range paths {
		if st, err := os.Stat(p); err == nil {
			sizes[i] = st.Size()
		}
		total += sizes[i]
	}
	groups := make([][]string, 1, n)
	var cum int64
	gi := 0
	for i, p := range paths {
		remFiles := len(paths) - i
		remGroups := n - gi
		if len(groups[gi]) > 0 && gi < n-1 &&
			(cum >= (int64(gi)+1)*total/int64(n) || remFiles <= remGroups) {
			groups = append(groups, nil)
			gi++
		}
		groups[gi] = append(groups[gi], p)
		cum += sizes[i]
	}
	return groups
}

// runCoordinator partitions cc.paths into pieces, runs them, merges the
// states, and renders.
func runCoordinator(cc coordConfig, stdout, stderr io.Writer) error {
	n := cc.workers
	if n <= 0 && len(cc.remote) > 0 {
		// Over-partition relative to the pool so straggler re-dispatch
		// and failure retries have spare pieces to balance with.
		n = 2 * len(cc.remote)
	}
	groups := partitionFiles(cc.paths, n)
	specJSON, err := json.Marshal(cc.set.Spec)
	if err != nil {
		return err
	}

	// Serialize log lines: dispatch logs from many goroutines, and the
	// caller's stderr may be a plain buffer.
	var logMu sync.Mutex
	logf := func(format string, args ...interface{}) {
		logMu.Lock()
		fmt.Fprintf(stderr, "nfsanalyze: "+format+"\n", args...)
		logMu.Unlock()
	}
	logf("coordinator: %d pieces over %d files, %d remote workers (%s)",
		len(groups), len(cc.paths), len(cc.remote), strings.Join(cc.remote, ","))

	// A remote state is decoded once: vetting it means decoding it, which
	// happens on the goroutine of the connection it arrived on while the
	// other workers are still busy, and the merge takes what that left in
	// vetted instead of decoding the bytes again.
	kind := cc.set.Spec.Kind
	var vetMu sync.Mutex
	vetted := make(map[int]*pipeline.Partial)
	dcfg := dispatch.Config{
		Addrs:         cc.remote,
		AssignTimeout: cc.timeout,
		Validate: func(t dispatch.Task, state []byte) error {
			p, err := jobspec.DecodeState(kind, state)
			if err != nil {
				return err
			}
			vetMu.Lock()
			vetted[t.ID] = p
			vetMu.Unlock()
			return nil
		},
		Logf: logf,
	}

	tasks := make([]dispatch.Task, len(groups))
	for i, g := range groups {
		tasks[i] = dispatch.Task{ID: i, Spec: specJSON, Files: g}
	}
	// The remote pool, when there is one, gets each attempt the full
	// retry/deadline/failover/speculation treatment; every piece it could
	// not finish then runs in this process.
	states := make([][]byte, len(groups))
	partials := make([]*pipeline.Partial, len(groups))
	if len(cc.remote) > 0 {
		results, rs, err := dispatch.Run(context.Background(), dcfg, tasks)
		if err != nil {
			return err
		}
		logf("coordinator: dispatch finished: %d/%d pieces remote (dispatched %d, retries %d, speculations %d, duplicates %d, divergent %d)",
			rs.Completed, len(tasks), rs.Dispatched, rs.Retries, rs.Speculations, rs.Duplicates, rs.Divergent)
		for _, res := range results {
			if res.Divergent {
				return fmt.Errorf("coordinator: piece %d: two attempts returned different states", res.TaskID)
			}
			states[res.TaskID] = res.State
			// A duplicate attempt may have been vetted after the
			// winner; only a decode of the winner's bytes stands in
			// for it, and both digests are SHA-256 over those bytes.
			if p := vetted[res.TaskID]; bytes.Equal(p.Digest, res.Digest[:]) {
				partials[res.TaskID] = p
			}
		}
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		if states[i] != nil {
			continue
		}
		if len(cc.remote) > 0 {
			logf("coordinator: piece %d: worker pool degraded; running locally", i)
		}
		wg.Add(1)
		go func(t dispatch.Task) {
			defer wg.Done()
			states[t.ID], errs[t.ID] = runPiece(cc.timeout, t)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	for i, blob := range states {
		if partials[i] != nil {
			continue
		}
		p, err := jobspec.DecodeState(kind, blob)
		if err != nil {
			return fmt.Errorf("coordinator: piece %d state: %w", i, err)
		}
		partials[i] = p
	}
	return renderMerged(cc.set, partials, stdout)
}

// runPiece analyzes one piece in this process under the -worker-timeout
// deadline. The deadline is looked at between operations: it ends a
// piece that is merely long, but it cannot interrupt a read that never
// returns or reclaim the memory of a piece that is too big — isolating
// a piece in its own process is what an nfsworker on loopback is for.
// Nothing here is retried: a piece that fails in-process fails the same
// way again.
func runPiece(timeout time.Duration, t dispatch.Task) ([]byte, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	state, err := jobspec.RunTask(ctx, t.Spec, t.Files)
	if err != nil {
		return nil, fmt.Errorf("coordinator: piece %d (files %s): %w", t.ID, strings.Join(t.Files, ", "), err)
	}
	return state, nil
}
