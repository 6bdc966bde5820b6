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

// The committed state corpus pins format version 4 in absolute terms:
// one state per nfsanalyze -analysis kind over a fixed tiny CAMPUS
// trace and the table each renders. The states of older versions, one
// blocklife state of version 1 and the version 2 and 3 corpora, are
// states this build must refuse. Rewrite the v4 files, after a
// deliberate format change, with
//
//	go test ./internal/pipeline -run TestStateCorpus -update
//
// The older files are history: nothing here writes them.
var update = flag.Bool("update", false, "rewrite the state corpus in testdata/state/v4")

const corpusDir = "testdata/state/v4"

// refusedDirs holds the states of older format versions, by version.
var refusedDirs = map[uint16]string{1: "testdata/state/v1", 2: "testdata/state/v2", 3: "testdata/state/v3"}

var corpusKinds = jobspec.Kinds()

// corpusRecords is the fixed tiny trace every corpus state was written from.
func corpusRecords() []*core.Record {
	sink := &client.SliceSink{}
	workload.NewCampus(workload.DefaultCampusConfig(2, 0.5, 20011021), sink).Run()
	return sink.Records
}

// writeCorpus rewrites every v4 state and its rendered golden.
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

// TestStateCorpus: every committed v4 state parses, resumes into a
// fresh Live at one and at three shards and writes back to the same
// bytes, and renders its committed table; every older state is refused
// with a *state.VersionError naming its version.
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
	for version, dir := range refusedDirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.state"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no version %d states in %s: %v", version, dir, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = pipeline.ParsePartial(data)
			var ve *state.VersionError
			if !errors.As(err, &ve) || ve.Got != version || ve.Supported != state.Version {
				t.Errorf("%s: got error %v, want a *state.VersionError for version %d", path, err, version)
			}
		}
	}
}
