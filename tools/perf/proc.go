package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every child process of one benchmark run shares.
type env struct {
	ctx  context.Context // cancelled on SIGINT/SIGTERM: every child dies with it
	bin  string          // directory of the built binaries
	work string          // scratch directory, inside the checkout
	out  string          // where span files go: tools/perf/out
	log  io.Writer       // progress, never the result line
}

// command prepares a child in its own process group, killed as a group
// when ctx ends, so a hung pass costs one failed pass and nothing more.
func (e *env) command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, bin), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 2 * time.Second
	// Children spool to TMPDIR (nfsworker, the local coordinator); keep
	// that inside the checkout too.
	cmd.Env = append(os.Environ(), "TMPDIR="+e.work)
	return cmd
}

// procResult is what one finished child cost.
type procResult struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	stderr []byte
}

// cpuTime is the user + system CPU a finished child used.
func cpuTime(st *os.ProcessState) time.Duration {
	if st == nil {
		return 0
	}
	return st.UserTime() + st.SystemTime()
}

// watchPeakRSS samples a running child's resident-set high-water mark
// until done closes and returns the last reading. The kernel's own
// figure, rusage's Maxrss, cannot be used: a child starts life sharing
// its parent's memory (vfork), and Maxrss never goes below what the
// parent held at that moment — every child of a 40 MB benchmark process
// would read 40 MB. The mark in /proc belongs to the memory the child
// got at exec. It only rises, so the last sample misses at most what
// the child grew in its final 10 ms.
func watchPeakRSS(pid int, done <-chan struct{}) float64 {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var peak float64
	for {
		if mb, err := procPeakRSS(pid); err == nil {
			peak = mb
		}
		select {
		case <-done:
			return peak
		case <-tick.C:
		}
	}
}

// run executes one child to completion under a deadline. stdout may be
// nil. A child that outlives the deadline is killed with its group and
// reported as an error.
func (e *env) run(deadline time.Duration, stdout io.Writer, bin string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(e.ctx, deadline)
	defer cancel()
	cmd := e.command(ctx, bin, args...)
	var errBuf bytes.Buffer
	cmd.Stdout = stdout
	cmd.Stderr = &errBuf
	t0 := time.Now()
	err := cmd.Start()
	var res procResult
	if err == nil {
		done := make(chan struct{})
		peak := make(chan float64, 1)
		go func() { peak <- watchPeakRSS(cmd.Process.Pid, done) }()
		err = cmd.Wait()
		res.wall = time.Since(t0)
		close(done)
		res.rssMB = <-peak
	}
	res.stderr = errBuf.Bytes()
	res.cpu = cpuTime(cmd.ProcessState)
	switch {
	case ctx.Err() == context.DeadlineExceeded:
		err = fmt.Errorf("%s: killed at the %s deadline", bin, deadline)
	case err != nil:
		err = fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), err, tail(errBuf.Bytes(), 2000))
	}
	return res, err
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// daemon is a long-running child whose stderr is scraped for the lines
// it announces itself with (ephemeral ports, ingest progress).
type daemon struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser

	mu    sync.Mutex
	lines []string
	wake  chan struct{} // one pending wake-up is enough: waiters re-scan
	done  chan struct{} // closed once the process has been waited for
}

// start launches a daemon; withStdin keeps a pipe to its standard
// input open for the caller to write.
func (e *env) start(withStdin bool, bin string, args ...string) (*daemon, error) {
	d := &daemon{name: bin, wake: make(chan struct{}, 1), done: make(chan struct{})}
	d.cmd = e.command(e.ctx, bin, args...)
	if withStdin {
		in, err := d.cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		d.stdin = in
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			d.mu.Unlock()
			select {
			case d.wake <- struct{}{}:
			default:
			}
		}
		_ = d.cmd.Wait() // the exit status of a daemon we stop ourselves carries nothing
	}()
	return d, nil
}

// waitLine blocks until the daemon has printed a line matching re and
// returns its submatches.
func (d *daemon) waitLine(re *regexp.Regexp, timeout time.Duration) ([]string, error) {
	expired := time.After(timeout)
	next := 0
	for {
		d.mu.Lock()
		for ; next < len(d.lines); next++ {
			if m := re.FindStringSubmatch(d.lines[next]); m != nil {
				d.mu.Unlock()
				return m, nil
			}
		}
		d.mu.Unlock()
		select {
		case <-d.wake:
		case <-d.done:
			return nil, fmt.Errorf("%s exited before printing %q\n%s", d.name, re, d.logTail())
		case <-expired:
			return nil, fmt.Errorf("%s: no line matching %q within %s\n%s", d.name, re, timeout, d.logTail())
		}
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return tail([]byte(strings.Join(d.lines, "\n")), 2000)
}

// stop asks the daemon to exit (SIGTERM), kills its group if it has not
// within 5 s, waits for it, and reports what it cost.
func (d *daemon) stop() (cpu time.Duration, rssMB float64) {
	if d.stdin != nil {
		d.stdin.Close()
	}
	rssMB, _ = procPeakRSS(d.cmd.Process.Pid) // 0 if it has already gone
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-d.done
	}
	return cpuTime(d.cmd.ProcessState), rssMB
}

// procCPU reads a live process's user+system CPU time from /proc, in
// clock ticks of 10 ms.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime fields 14 and 15.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat line")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procPeakRSS reads a live process's resident-set high-water mark.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
