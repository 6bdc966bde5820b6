package main

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/anon"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// monitor ingests a trace as `nfsmond -i trace -analyses peak,mailbox`
// does and returns its /api/analyses body.
func monitor(t *testing.T, records []*core.Record) string {
	t.Helper()
	var text bytes.Buffer
	if err := core.WriteAll(&text, records); err != nil {
		t.Fatal(err)
	}
	sets, err := analysisSets("peak,mailbox")
	if err != nil {
		t.Fatal(err)
	}
	d := newDaemon(pipeline.Config{Workers: 2}, 60, 60, 5, false, sets)
	defer d.lv.Abort()
	if err := d.ingestLoop(func() (core.RecordSource, error) {
		return core.NewReadAhead(bytes.NewReader(text.Bytes()))
	}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.serveAnalyses(rec, httptest.NewRequest("GET", "/api/analyses", nil))
	return rec.Body.String()
}

// TestAnonymizedTraceMonitorsAsRaw: the peak-hour and mailbox
// analyzers categorize names as they ingest, and serve the same tables
// for a trace anonymized as nfsanon does, at three seeds, as for the
// raw trace.
func TestAnonymizedTraceMonitorsAsRaw(t *testing.T) {
	if testing.Short() {
		t.Skip("trace generation")
	}
	scale := repro.Scale{CampusUsers: 4, EECSClients: 2, Days: 1, Seed: 20011021}
	for _, sys := range []struct {
		name string
		gen  func(repro.Scale) []*core.Record
	}{{"CAMPUS", repro.GenerateCampusRecords}, {"EECS", repro.GenerateEECSRecords}} {
		records := sys.gen(scale)
		want := monitor(t, records)
		for _, seed := range []int64{7, 42, 2003} {
			a := anon.New(anon.DefaultConfig(seed))
			anonymized := make([]*core.Record, len(records))
			for i, r := range records {
				c := *r
				a.Record(&c)
				anonymized[i] = &c
			}
			if got := monitor(t, anonymized); got != want {
				t.Errorf("%s, seed %d: anonymized trace serves\n%s\nraw trace serves\n%s", sys.name, seed, got, want)
			}
		}
	}
}
