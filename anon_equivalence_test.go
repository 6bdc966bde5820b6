package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/anon"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/pcap"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The anonymizer keeps what the analyses read (§2): the tables an
// anonymized trace gives are the raw trace's, byte for byte. The scale
// is the smallest at which both systems create composer, temp and
// source files, whose names the anonymizer must not lose.
var (
	anonScale = Scale{CampusUsers: 4, EECSClients: 2, Days: 1, Seed: 20011021}
	anonSeeds = []int64{7, 42, 2003}
	anonKinds = jobspec.Kinds()
)

// analyzeAll renders every -analysis kind over a text trace as
// `nfsanalyze -workers 2` prints it.
func analyzeAll(t *testing.T, trace []byte) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, kind := range anonKinds {
		set, err := jobspec.Build(jobspec.Default(kind))
		if err != nil {
			t.Fatal(err)
		}
		ra, err := core.NewReadAhead(bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		lv, join, err := set.Ingest(context.Background(), ra, 2, nil)
		ra.Stop()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var buf bytes.Buffer
		set.Render(&buf, lv.Finish(), join)
		out[kind] = buf.String()
	}
	return out
}

// anonymizeText rewrites a text trace record by record, as nfsanon does.
func anonymizeText(t *testing.T, trace []byte, seed int64) []byte {
	t.Helper()
	a := anon.New(anon.DefaultConfig(seed))
	var buf bytes.Buffer
	w := core.NewWriter(&buf)
	for r := core.NewReader(bytes.NewReader(trace)); ; {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		a.Record(rec)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func textTrace(t *testing.T, records []*core.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameAnalyses(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for _, kind := range anonKinds {
		if got[kind] != want[kind] {
			t.Errorf("%s: %s differs from the raw trace's:\n--- raw ---\n%s--- anonymized ---\n%s",
				what, kind, want[kind], got[kind])
		}
	}
}

// TestAnonymizedTraceAnalyzesAsRaw: nfsanon output, at three seeds,
// analyzes as the raw trace does, on both systems.
func TestAnonymizedTraceAnalyzesAsRaw(t *testing.T) {
	if testing.Short() {
		t.Skip("trace generation")
	}
	for _, sys := range []struct {
		name string
		gen  func(Scale) []*core.Record
	}{{"CAMPUS", GenerateCampusRecords}, {"EECS", GenerateEECSRecords}} {
		raw := textTrace(t, sys.gen(anonScale))
		want := analyzeAll(t, raw)
		for _, seed := range anonSeeds {
			got := analyzeAll(t, anonymizeText(t, raw, seed))
			sameAnalyses(t, fmt.Sprintf("%s, nfsanon -seed %d", sys.name, seed), got, want)
		}
	}
}

// generator is a simulated system that can also write its capture.
type generator interface {
	Capture(client.PacketSink, int)
	Run()
}

// pcapStream writes a capture's packets to a pcap stream, keeping the
// first write error.
type pcapStream struct {
	w   *pcap.Writer
	err error
}

func (p *pcapStream) Packet(t float64, frame []byte) {
	if p.err == nil {
		p.err = p.w.WritePacket(t, frame)
	}
}

// sniffCapture generates a system's capture as nfsgen -pcap writes it
// and sniffs it as nfstrace does, once per anonymizer (nil: raw). Each
// sniffer reads its own copy of the stream, so the capture, tens of MB,
// is never held.
func sniffCapture(t *testing.T, gen generator, mtu int, anons []*anon.Anonymizer) [][]*core.Record {
	t.Helper()
	out := make([][]*core.Record, len(anons))
	errs := make([]error, len(anons))
	pipes := make([]io.Writer, len(anons))
	var wg sync.WaitGroup
	for i, a := range anons {
		r, w := io.Pipe()
		pipes[i] = w
		wg.Add(1)
		go func(i int, a *anon.Anonymizer) {
			defer wg.Done()
			out[i], _, errs[i] = Sniff(r, a)
			io.Copy(io.Discard, r) // a failed sniff must not stall the others
		}(i, a)
	}
	pw, err := pcap.NewWriter(io.MultiWriter(pipes...), true)
	if err != nil {
		t.Fatal(err)
	}
	stream := &pcapStream{w: pw}
	gen.Capture(stream, mtu)
	gen.Run()
	if stream.err == nil {
		stream.err = pw.Flush()
	}
	for _, w := range pipes {
		w.(*io.PipeWriter).Close()
	}
	wg.Wait()
	if stream.err != nil {
		t.Fatal(stream.err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestAnonymizedCaptureAnalyzesAsRaw: a generated capture sniffed with
// nfstrace -anonymize, at three seeds, analyzes as the same capture
// sniffed raw, on both systems: CAMPUS over TCP at the jumbo MTU, EECS
// over UDP with IP fragments.
func TestAnonymizedCaptureAnalyzesAsRaw(t *testing.T) {
	if testing.Short() {
		t.Skip("capture generation")
	}
	s := anonScale
	discard := client.FuncSink(func(*core.Record, int) {})
	for _, sys := range []struct {
		name string
		gen  func() generator
		mtu  int
	}{
		{"CAMPUS", func() generator {
			return workload.NewCampus(workload.DefaultCampusConfig(s.CampusUsers, s.Days, s.Seed), discard)
		}, wire.JumboMTU},
		{"EECS", func() generator {
			return workload.NewEECS(workload.DefaultEECSConfig(s.EECSClients, s.Days, s.Seed), discard)
		}, wire.StandardMTU},
	} {
		anons := []*anon.Anonymizer{nil}
		for _, seed := range anonSeeds {
			anons = append(anons, anon.New(anon.DefaultConfig(seed)))
		}
		sniffed := sniffCapture(t, sys.gen(), sys.mtu, anons)
		want := analyzeAll(t, textTrace(t, sniffed[0]))
		for i, seed := range anonSeeds {
			got := analyzeAll(t, textTrace(t, sniffed[i+1]))
			sameAnalyses(t, fmt.Sprintf("%s, nfstrace -anonymize -seed %d", sys.name, seed), got, want)
		}
	}
}
