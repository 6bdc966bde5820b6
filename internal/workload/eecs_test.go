package workload

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
)

func TestEECSV2ClientsRespectTransferLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, _ := generateEECS(t, 3, 0.5)
	for _, op := range ops {
		if op.Version == nfs.V2 && (op.IsRead() || op.IsWrite()) {
			if op.Count > 8192 {
				t.Fatalf("v2 %s with count %d", op.Proc, op.Count)
			}
		}
	}
}

func TestEECSLogRotationDeletesAndRecreates(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, _ := generateEECS(t, 2, 1)
	var renames, removes, creates int
	for _, op := range ops {
		switch {
		case op.Proc == core.MustProc("rename") && op.Name == "experiment.log":
			renames++
		case op.Proc == core.MustProc("remove") && op.Name == "experiment.log.0":
			removes++
		case op.Proc == core.MustProc("create") && op.Name == "experiment.log":
			creates++
		}
	}
	if renames == 0 || removes == 0 || creates == 0 {
		t.Fatalf("log rotation missing: %d renames, %d removes, %d creates",
			renames, removes, creates)
	}
}

func TestEECSAppletChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, _ := generateEECS(t, 2, 0.5)
	created := map[string]float64{}
	var lifetimes []float64
	for _, op := range ops {
		if !strings.HasPrefix(op.Name, "Applet_") {
			continue
		}
		switch op.Proc {
		case core.ProcCreate:
			created[op.Name] = op.T
		case core.ProcRemove:
			if t0, ok := created[op.Name]; ok {
				lifetimes = append(lifetimes, op.T-t0)
				delete(created, op.Name)
			}
		}
	}
	if len(lifetimes) < 50 {
		t.Fatalf("only %d applet create/delete pairs", len(lifetimes))
	}
	fast := 0
	for _, l := range lifetimes {
		if l < 2 {
			fast++
		}
	}
	if float64(fast) < 0.8*float64(len(lifetimes)) {
		t.Fatalf("applet files not short-lived: %d/%d under 2s", fast, len(lifetimes))
	}
}

func TestEECSNightJobsOffPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	// Cron jobs follow the inverted curve: big sequential reads should
	// be relatively more frequent off-peak. Count long reads (>1MB of
	// consecutive read ops on one file within a minute) by hour class.
	ops, _ := generateEECS(t, 3, 2)
	var peakBytes, offBytes, peakHours, offHours float64
	for _, op := range ops {
		if !op.IsRead() {
			continue
		}
		if IsPeak(op.T) {
			peakBytes += float64(op.Bytes())
		} else {
			offBytes += float64(op.Bytes())
		}
	}
	for h := 0; h < 48; h++ {
		if IsPeak(float64(h) * Hour) {
			peakHours++
		} else {
			offHours++
		}
	}
	if peakBytes == 0 || offBytes == 0 {
		t.Fatal("read bytes missing from one class")
	}
	// Per-hour off-peak read rate should not collapse to zero (cron
	// keeps the nights busy), unlike CAMPUS.
	offRate := offBytes / offHours
	peakRate := peakBytes / peakHours
	if offRate < peakRate*0.05 {
		t.Fatalf("EECS nights too quiet: off=%.0f peak=%.0f bytes/h", offRate, peakRate)
	}
}

func TestCampusLockTransience(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	ops, _ := generateCampus(t, 3, 1)
	created := map[core.FH]float64{} // per-home lock create time
	var lifetimes []float64
	for _, op := range ops {
		if op.Name != "inbox.lock" {
			continue
		}
		switch op.Proc {
		case core.ProcCreate:
			created[op.FH] = op.T
		case core.ProcRemove:
			if t0, ok := created[op.FH]; ok {
				lifetimes = append(lifetimes, op.T-t0)
				delete(created, op.FH)
			}
		}
	}
	if len(lifetimes) < 100 {
		t.Fatalf("only %d lock cycles", len(lifetimes))
	}
	under := 0
	for _, l := range lifetimes {
		if l < 0.4 {
			under++
		}
	}
	if frac := float64(under) / float64(len(lifetimes)); frac < 0.95 {
		t.Fatalf("locks under 0.4s: %.2f, want ≈1 (paper: 99.9%%)", frac)
	}
}

func TestCampusTCPJumboOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	sink := &client.SliceSink{}
	NewCampus(DefaultCampusConfig(2, 0.2, 5), sink).Run()
	for _, r := range sink.Records {
		if r.Proto != core.ProtoTCP {
			t.Fatal("CAMPUS record not over TCP")
		}
		if r.Version != nfs.V3 {
			t.Fatal("CAMPUS record not NFSv3")
		}
	}
}

func TestEECSUDPOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation")
	}
	sink := &client.SliceSink{}
	NewEECS(DefaultEECSConfig(3, 0.2, 5), sink).Run()
	for _, r := range sink.Records {
		if r.Proto != core.ProtoUDP {
			t.Fatal("EECS record not over UDP")
		}
	}
}
