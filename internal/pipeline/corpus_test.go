package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/state"
	"repro/internal/workload"
)

// The committed state corpus pins format version 2 in absolute terms:
// one state per nfsanalyze -analysis kind over a fixed tiny CAMPUS
// trace, the table each renders, and one blocklife state of format
// version 1 that this build must refuse. Rewrite the v2 files, after a
// deliberate format change, with
//
//	go test ./internal/pipeline -run TestStateCorpus -update
//
// The v1 file is history: nothing here writes it.
var update = flag.Bool("update", false, "rewrite the state corpus in testdata/state/v2")

const corpusDir = "testdata/state/v2"

var corpusKinds = jobspec.Kinds()

// corpusRecords is the fixed tiny trace every corpus state was written from.
func corpusRecords() []*core.Record {
	sink := &client.SliceSink{}
	workload.NewCampus(workload.DefaultCampusConfig(2, 0.5, 20011021), sink).Run()
	return sink.Records
}

// writeCorpus rewrites every v2 state and its rendered golden.
func writeCorpus(t *testing.T) {
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	records := corpusRecords()
	for _, kind := range corpusKinds {
		set, err := jobspec.Build(jobspec.Default(kind))
		if err != nil {
			t.Fatal(err)
		}
		lv, join, err := set.Ingest(context.Background(), &core.SliceSource{Records: records}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := set.State(lv, join, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir, kind+".state"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir, kind+".golden"), render(t, kind, data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// render merges one state alone into fresh analyzers and renders it as
// nfsanalyze -merge does.
func render(t *testing.T, kind string, data []byte) []byte {
	t.Helper()
	p, err := jobspec.DecodeState(kind, data)
	if err != nil {
		t.Fatal(err)
	}
	set, err := jobspec.Build(jobspec.Default(kind))
	if err != nil {
		t.Fatal(err)
	}
	stats, join, err := pipeline.MergePartials(set.Analyzers, []*pipeline.Partial{p})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	set.Render(&out, stats, join)
	return out.Bytes()
}

// TestStateCorpus: every committed v2 state parses, resumes into a
// fresh Live at one and at three shards and writes back to the same
// bytes, and renders its committed table; the v1 state is refused with
// a *state.VersionError.
func TestStateCorpus(t *testing.T) {
	if *update {
		writeCorpus(t)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, kind := range corpusKinds {
		t.Run(kind, func(t *testing.T) {
			data := read(kind + ".state")
			for _, shards := range []int{1, 3} {
				p, err := pipeline.ParsePartial(data)
				if err != nil {
					t.Fatal(err)
				}
				set, err := jobspec.Build(jobspec.Default(kind))
				if err != nil {
					t.Fatal(err)
				}
				lv := pipeline.NewLive(pipeline.Config{Workers: shards}, set.Analyzers...)
				if err := p.Resume(lv); err != nil {
					t.Fatal(err)
				}
				lv.Quiesce()
				var again bytes.Buffer
				if err := pipeline.WritePartial(&again, lv, p.Label, p.Join, nil); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), data) {
					t.Errorf("shards=%d: parse → resume → write changed the %d-byte state (now %d bytes)",
						shards, len(data), again.Len())
				}
			}
			if got, want := render(t, kind, data), read(kind+".golden"); !bytes.Equal(got, want) {
				t.Errorf("merged state renders\n%s\nwant\n%s", got, want)
			}
		})
	}
	_, err := pipeline.ParsePartial(read("v1-blocklife.state"))
	var ve *state.VersionError
	if !errors.As(err, &ve) || ve.Got != 1 || ve.Supported != state.Version {
		t.Fatalf("v1 state: got error %v, want a *state.VersionError for version 1", err)
	}
}
