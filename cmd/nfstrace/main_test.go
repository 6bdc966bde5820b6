package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/anon"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pcap"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wire"
	"repro/internal/workload"
)

type packet struct {
	t    float64
	data []byte
}

type packetList []packet

func (l *packetList) Packet(t float64, frame []byte) {
	*l = append(*l, packet{t, append([]byte(nil), frame...)})
}

// writeCapture simulates one NFSv3 client over proto at the given MTU
// and writes what its wire tap saw to a pcap file: files created,
// written (8 KiB WRITEs fragment at the standard MTU), looked up, read,
// listed, renamed, truncated and removed, one of them with a name the
// trace format must escape.
func writeCapture(tb testing.TB, path string, proto byte, mtu int) {
	tb.Helper()
	fs := vfs.New()
	now := 0.0
	fs.Clock = func() float64 { now += 0.0001; return now }
	srv := server.New(fs)
	var pkts packetList
	c := client.New(client.Config{
		IP: 0x0a000005, UID: 501, GID: 100, Version: nfs.V3, Proto: proto, Seed: 5,
	}, srv, 0x0a000001, &client.SliceSink{})
	c.EnableWireTap(client.NewWireTap(&pkts, 0x0a000005, 0x0a000001, mtu))

	root := fs.RootFH()
	fh, t := c.Create(1, root, "inbox", false)
	t = c.WriteRange(t, fh, 0, 20000)
	_, _, t = c.Lookup(t+0.01, root, "inbox")
	_, t = c.ReadRange(t+0.01, fh, 0, 20000)
	note, t := c.Create(t+0.5, root, "to do=now.txt", false)
	t = c.WriteRange(t, note, 0, 300)
	t = c.Rename(t+0.01, root, "to do=now.txt", root, "done.txt")
	_, t = c.Readdir(t+0.1, root)
	t = c.SetattrTruncate(t+0.2, fh, 1000)
	_, t = c.Getattr(t+0.01, fh)
	c.Remove(t+0.01, root, "done.txt")

	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].t < pkts[j].t })
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	w, err := pcap.NewWriter(f, true)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p.t, p.data); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
}

// captures are the golden test's inputs: NFSv3 over UDP at the standard
// MTU (IP fragments) and over TCP (segments and record marking).
var captures = map[string]struct {
	proto byte
	mtu   int
}{
	"udp": {core.ProtoUDP, wire.StandardMTU},
	"tcp": {core.ProtoTCP, wire.StandardMTU},
}

func capturePath(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".pcap")
	writeCapture(t, path, captures[name].proto, captures[name].mtu)
	return path
}

// runTrace runs nfstrace and returns its stdout followed by its stderr,
// the statistics line.
func runTrace(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	return stdout.String() + stderr.String()
}

// The golden files pin nfstrace's output, records and statistics line,
// in absolute terms. Their records were cut with the binary of commit
// f1e08f1, before the capture path reused its read buffer, and the
// statistics line has since gained its counts of unmatched calls and
// of dropped datagrams; the
// anonymized golden was cut again when the anonymizer began keeping the
// name features the analyses read (done.txt keeps its ".txt"). All are
// over the captures writeCapture writes:
//
//	nfstrace -r udp.pcap > udp.golden 2>&1
//	nfstrace -r tcp.pcap > tcp.golden 2>&1
//	nfstrace -r udp.pcap -anonymize -seed 42 -mapfile m > anon.golden 2>&1
func TestGolden(t *testing.T) {
	cases := map[string][]string{"udp": nil, "tcp": nil, "anon": {"-anonymize", "-seed", "42"}}
	for name, extra := range cases {
		name, extra := name, extra
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			capture := name
			if name == "anon" {
				capture = "udp"
				extra = append(extra, "-mapfile", filepath.Join(t.TempDir(), "m"))
			}
			got := runTrace(t, append([]string{"-r", capturePath(t, capture)}, extra...)...)
			if got != string(want) {
				t.Errorf("output differs from testdata/%s.golden:\n%s", name, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff reports the first line at which got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestAnonymizeMapfileRoundTrip: a second run that pre-loads the saved
// tables, with another seed, writes the first run's trace to -o and
// saves the same tables back, a name with a space included; the
// client's own file names survive neither run.
func TestAnonymizeMapfileRoundTrip(t *testing.T) {
	in := capturePath(t, "udp")
	dir := t.TempDir()
	mapFile := filepath.Join(dir, "anon.map")
	first := runTrace(t, "-r", in, "-anonymize", "-seed", "42", "-mapfile", mapFile)
	tables, err := os.ReadFile(mapFile)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "trace.txt")
	stats := runTrace(t, "-r", in, "-anonymize", "-seed", "7", "-mapfile", mapFile, "-o", out)
	second, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(second)+stats != first {
		t.Errorf("pre-loaded tables gave another trace:\n%s", firstDiff(string(second)+stats, first))
	}
	again, err := os.ReadFile(mapFile)
	if err != nil {
		t.Fatal(err)
	}
	// The header names the seed; the mappings below it must not move.
	if _, body, _ := bytes.Cut(again, []byte("\n")); len(body) == 0 || !bytes.HasSuffix(tables, body) {
		t.Errorf("saving pre-loaded tables changed them:\n%s\nthen\n%s", tables, again)
	}
	for _, name := range []string{"done.txt", `to\sdo\enow.txt`} { // "inbox" is kept as well known
		if strings.Contains(first, "name="+name) {
			t.Errorf("name %q survives anonymization", name)
		}
	}
	plain := runTrace(t, "-r", in)
	if !strings.Contains(plain, `name=to\sdo\enow.txt`) || plain == first {
		t.Error("the plain trace should carry the escaped client name the anonymized one hides")
	}
}

func TestUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.pcap")
	notPcap := filepath.Join(t.TempDir(), "text.pcap")
	if err := os.WriteFile(notPcap, bytes.Repeat([]byte("not a capture "), 4), 0o644); err != nil {
		t.Fatal(err)
	}
	badMap := filepath.Join(t.TempDir(), "bad.map")
	if err := os.WriteFile(badMap, []byte("uid one two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := capturePath(t, "udp")
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-r", missing}, 1},
		{[]string{"-r", notPcap}, 1},
		{[]string{"-r", good, "-o", filepath.Join(missing, "trace.txt")}, 1},
		{[]string{"-r", good, "-anonymize", "-mapfile", badMap}, 1},
		{[]string{"-h"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.code, stderr.String())
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q", tc.args, stdout.String(), stderr.String())
		}
	}
	// Tables that cannot be saved fail the run after the trace is out.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-r", good, "-anonymize", "-mapfile", filepath.Join(missing, "anon.map")}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "anon.map") {
		t.Errorf("unwritable mapfile: exit %d, stderr %q", code, stderr.String())
	}
}

// TestStatsLineCountsDroppedDatagrams: a datagram given up with a
// fragment missing shows at the end of the statistics line, whether a
// second first fragment restarted it (the records stay the plain
// capture's) or the capture ended without its last fragment.
func TestStatsLineCountsDroppedDatagrams(t *testing.T) {
	in := capturePath(t, "udp")
	f, err := os.Open(in)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var pkts packetList
	for {
		p, err := r.Next()
		if err != nil {
			break
		}
		pkts.Packet(p.Time, p.Data)
	}
	first, last := -1, -1 // the first fragmented datagram's first and last fragments
	for i, p := range pkts {
		fr, err := wire.Decode(p.data)
		if err != nil || !fr.IsFragment {
			continue
		}
		if first < 0 && fr.MoreFrags && fr.FragOffset == 0 {
			first = i
		} else if first >= 0 && !fr.MoreFrags {
			last = i
			break
		}
	}
	if last < 0 {
		t.Fatal("the capture has no fragmented datagram")
	}

	plain := runTrace(t, "-r", in)
	if !strings.HasSuffix(plain, " unmatched calls, 0 dropped datagrams\n") {
		t.Fatalf("statistics line does not end with the dropped datagrams:\n%s", lastLine(plain))
	}

	// The same first fragment, ahead of its datagram.
	doubled := append(append(pkts[:first:first], pkts[first]), pkts[first:]...)
	want := strings.Replace(plain, "0 dropped datagrams\n", "1 dropped datagrams\n", 1)
	want = regexp.MustCompile(`nfstrace: \d+ packets`).ReplaceAllString(want, fmt.Sprintf("nfstrace: %d packets", len(doubled)))
	if got := runTrace(t, "-r", writePackets(t, doubled)); got != want {
		t.Errorf("doubled first fragment:\n%s", firstDiff(got, want))
	}

	// The datagram's last fragment never arrives.
	cut := append(pkts[:last:last], pkts[last+1:]...)
	if got := runTrace(t, "-r", writePackets(t, cut)); !strings.HasSuffix(got, " unmatched calls, 1 dropped datagrams\n") {
		t.Errorf("last fragment lost: %s", lastLine(got))
	}
}

// writePackets writes pkts to a new pcap file and returns its path.
func writePackets(t *testing.T, pkts packetList) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lossy.pcap")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	w, err := pcap.NewWriter(out, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p.t, p.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// lastLine is the last line of out.
func lastLine(out string) string {
	out = strings.TrimSuffix(out, "\n")
	return out[strings.LastIndex(out, "\n")+1:]
}

// generated writes a generated system's capture, as nfsgen -pcap does,
// to a pcap file and returns its path: EECS over UDP at the standard
// MTU (IP fragments), CAMPUS over TCP at the jumbo MTU.
func generated(t *testing.T, system string) string {
	t.Helper()
	var pkts packetList
	discard := client.FuncSink(func(*core.Record, int) {})
	switch system {
	case "eecs":
		gen := workload.NewEECS(workload.DefaultEECSConfig(2, 0.4, 7), discard)
		gen.Capture(&pkts, wire.StandardMTU)
		gen.Run()
	case "campus":
		gen := workload.NewCampus(workload.DefaultCampusConfig(12, 0.4, 7), discard)
		gen.Capture(&pkts, wire.JumboMTU)
		gen.Run()
	}
	return writePackets(t, pkts)
}

// recycleCounter hands each record on to the sniffer and counts them.
type recycleCounter struct {
	sn *capture.Sniffer
	n  int
}

func (c *recycleCounter) Recycle(rec *core.Record) { c.n++; c.sn.Recycle(rec) }

// TestRecycledRecordsRenderAsKept: records handed back for reuse carry
// nothing from their last use. The sniffer and writer goroutine trace
// wires together, whose every record is rendered and recycled, print
// byte for byte what repro.Sniff's records, which are all kept and
// never reused, render to — on a UDP capture, a TCP capture at the
// jumbo MTU and under -anonymize — and the records did come back:
// fewer distinct records carried the trace than it has lines. (How
// many fewer depends on how far the writer falls behind.)
func TestRecycledRecordsRenderAsKept(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an EECS and a CAMPUS capture")
	}
	eecs, campus := generated(t, "eecs"), generated(t, "campus")
	for _, c := range []struct {
		name, path string
		seed       int64 // anonymization seed; 0: raw
	}{{"eecs udp", eecs, 0}, {"campus tcp jumbo", campus, 0}, {"eecs anonymize", eecs, 42}} {
		c := c
		newAnon := func() *anon.Anonymizer {
			if c.seed == 0 {
				return nil
			}
			return anon.New(anon.DefaultConfig(c.seed))
		}
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		kept, _, err := repro.Sniff(bytes.NewReader(data), newAnon())
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := repro.WriteTrace(&want, kept); err != nil {
			t.Fatal(err)
		}

		pr, err := pcap.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		sn := capture.NewSniffer(nil)
		sn.Anon = newAnon()
		counter := &recycleCounter{sn: sn}
		rw := startWriter(core.NewWriter(&got), counter)
		distinct := map[*core.Record]bool{}
		sn.Emit = func(rec *core.Record) { distinct[rec] = true; rw.emit(rec) }
		err = sn.ReadPcap(pr)
		if werr := rw.close(); err == nil {
			err = werr
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: recycled records render otherwise than kept ones:\n%s", c.name, firstDiff(got.String(), want.String()))
		}
		if counter.n != len(kept) || len(distinct) >= len(kept) {
			t.Errorf("%s: %d records recycled, %d distinct, of %d", c.name, counter.n, len(distinct), len(kept))
		}
		t.Logf("%s: %d records carried by %d", c.name, len(kept), len(distinct))
	}
}

// errFull is what failAfter's writes fail with once its room is used.
var errFull = errors.New("no space left on device")

// failAfter is a stdout that takes n bytes and then fails every write,
// as a closed pipe or a full disk does.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestOutputFailure: an output that fails in the middle of the trace
// ends nfstrace with exit 1 and the error, promptly, with the writer
// goroutine gone — the sniffer does not wait on a writer that has
// stopped writing.
func TestOutputFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an EECS capture")
	}
	in := generated(t, "eecs")
	for _, room := range []int{0, 100 << 10, 1 << 20} {
		room := room
		before := runtime.NumGoroutine()
		var stderr bytes.Buffer
		code := make(chan int, 1)
		go func() { code <- run([]string{"-r", in}, &failAfter{n: room}, &stderr) }()
		select {
		case c := <-code:
			if c != 1 || stderr.String() != "nfstrace: "+errFull.Error()+"\n" {
				t.Errorf("output failing after %d bytes: exit %d, stderr %q", room, c, stderr.String())
			}
		case <-time.After(time.Minute):
			t.Fatalf("output failing after %d bytes: nfstrace has not returned after a minute", room)
		}
		// The goroutine has closed its done channel and may not have
		// returned quite yet.
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("output failing after %d bytes: %d goroutines after the run, %d before", room, n, before)
		}
	}
}
