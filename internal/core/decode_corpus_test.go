package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/workload"
)

// traceCorpus holds generated text traces, one line per record: a
// CAMPUS trace (mail, the mix analyze_text reads) and an EECS trace
// (research, the mix live_monitor reads).
type traceCorpus struct {
	name  string
	lines [][]byte
	bytes int64
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
			for _, r := range c.sink.Records {
				line := r.AppendMarshal(nil)
				tc.lines = append(tc.lines, line)
				tc.bytes += int64(len(line)) + 1
			}
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
