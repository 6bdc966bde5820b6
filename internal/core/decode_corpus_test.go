package core_test

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/workload"
)

// traceCorpus holds generated text traces, one line per record: a
// CAMPUS trace (mail, the mix analyze_text reads) and an EECS trace
// (research, the mix live_monitor reads), and the binary form of each.
type traceCorpus struct {
	name   string
	lines  [][]byte
	bytes  int64
	binary []byte
}

var (
	corpusOnce sync.Once
	corpora    []traceCorpus
)

func decodeCorpora() []traceCorpus {
	corpusOnce.Do(func() {
		campus, eecs := &client.SliceSink{}, &client.SliceSink{}
		workload.NewCampus(workload.DefaultCampusConfig(40, 0.5, 20011021), campus).Run()
		workload.NewEECS(workload.DefaultEECSConfig(2, 0.5, 20011021), eecs).Run()
		for _, c := range []struct {
			name string
			sink *client.SliceSink
		}{{"campus", campus}, {"eecs", eecs}} {
			tc := traceCorpus{name: c.name}
			var bin bytes.Buffer
			bw := core.NewBinaryWriter(&bin)
			for _, r := range c.sink.Records {
				line := r.AppendMarshal(nil)
				tc.lines = append(tc.lines, line)
				tc.bytes += int64(len(line)) + 1
				if err := bw.Write(r); err != nil {
					panic(err)
				}
			}
			if err := bw.Flush(); err != nil {
				panic(err)
			}
			tc.binary = bin.Bytes()
			corpora = append(corpora, tc)
		}
	})
	return corpora
}

// TestTokenizerOracleOnTraces holds the tokenizer to the oracle on
// every line of generated CAMPUS and EECS traces.
func TestTokenizerOracleOnTraces(t *testing.T) {
	for _, tc := range decodeCorpora() {
		if len(tc.lines) < 1000 {
			t.Fatalf("%s: only %d lines", tc.name, len(tc.lines))
		}
		for _, line := range tc.lines {
			if diff := core.TokenizerOracleDiff(line); diff != "" {
				t.Fatalf("%s: %s", tc.name, diff)
			}
		}
		t.Logf("%s: %d lines", tc.name, len(tc.lines))
	}
}

// TestBinaryOracleOnTraces holds the binary reader to the oracle on the
// binary form of generated CAMPUS and EECS traces: whole, and cut where
// records straddle the reader's 64 KiB buffer and handed over as a live
// feed would (core.BinaryOracleDiff's inputs).
func TestBinaryOracleOnTraces(t *testing.T) {
	for _, tc := range decodeCorpora() {
		if len(tc.binary) < 4<<16 {
			t.Fatalf("%s: only %d bytes", tc.name, len(tc.binary))
		}
		if diff := core.BinaryOracleDiff(tc.binary, 0); diff != "" {
			t.Fatalf("%s: %s", tc.name, diff)
		}
		for _, cut := range []int{1<<16 - 1, 1 << 16, 1<<16 + 7, 2<<16 + 3, 3<<16 + 101} {
			for input := 0; input < core.BinaryOracleInputs; input++ {
				if diff := core.BinaryOracleDiff(tc.binary[:cut], input); diff != "" {
					t.Fatalf("%s cut at %d: %s", tc.name, cut, diff)
				}
			}
		}
	}
}

// BenchmarkTextDecodeCorpus decodes every line of the generated CAMPUS
// and EECS traces, reporting ns per record and MB/s of trace text.
func BenchmarkTextDecodeCorpus(b *testing.B) {
	for _, tc := range decodeCorpora() {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(tc.bytes)
			b.ReportAllocs()
			var r core.Record
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for _, line := range tc.lines {
					r = core.Record{}
					if err := core.UnmarshalRecordBytes(line, &r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*len(tc.lines)), "ns/rec")
		})
	}
}

// BenchmarkReaderCorpus drains the generated CAMPUS and EECS traces
// through the serial readers, text (NewReader) and binary
// (NewBinaryReader), reporting ns per record. Unlike
// BenchmarkTextDecodeCorpus it goes through a reader, so the readers'
// framing and the binary reader's handle memo are measured, on the
// handles and values of real traces. Records are recycled as the
// joiner recycles them.
func BenchmarkReaderCorpus(b *testing.B) {
	for _, tc := range decodeCorpora() {
		text := bytes.Join(tc.lines, []byte("\n"))
		for _, f := range []struct {
			name string
			data []byte
			open func(io.Reader) core.RecordSource
		}{
			{"text", text, func(r io.Reader) core.RecordSource { return core.NewReader(r) }},
			{"binary", tc.binary, func(r io.Reader) core.RecordSource { return core.NewBinaryReader(r) }},
		} {
			b.Run(tc.name+"/"+f.name, func(b *testing.B) {
				b.SetBytes(int64(len(f.data)))
				b.ReportAllocs()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					src := f.open(bytes.NewReader(f.data))
					n := 0
					for {
						r, err := src.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
						src.(core.RecordRecycler).Recycle(r)
						n++
					}
					if n != len(tc.lines) {
						b.Fatalf("read %d records, want %d", n, len(tc.lines))
					}
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*len(tc.lines)), "ns/rec")
			})
		}
	}
}
