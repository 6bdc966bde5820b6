package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestInternFHRoundTrip: interning any spelling and rendering it back
// must reproduce the spelling, and re-interning must reproduce the ID.
func TestInternFHRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	spellings := []string{"", "0", "deadbeef", "0000000000000007"}
	for i := 0; i < 200; i++ {
		n := rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		spellings = append(spellings, string(b))
	}
	for _, s := range spellings {
		id := InternFH(s)
		if got := id.String(); got != s {
			t.Fatalf("InternFH(%q).String() = %q", s, got)
		}
		if again := InternFH(s); again != id {
			t.Fatalf("InternFH(%q) unstable: %d then %d", s, id, again)
		}
		if fromBytes := InternFHBytes([]byte(s)); fromBytes != id {
			t.Fatalf("InternFHBytes(%q) = %d, InternFH = %d", s, fromBytes, id)
		}
	}
	if InternFH("") != 0 {
		t.Fatal("empty handle must intern as the zero FH")
	}
}

// TestInternFHConcurrent hammers the table from many goroutines with
// overlapping handle sets; run under -race this doubles as the data-race
// check for the sharded table. Every goroutine must observe the same ID
// for the same spelling.
func TestInternFHConcurrent(t *testing.T) {
	const goroutines = 8
	const handles = 400
	spellings := make([]string, handles)
	for i := range spellings {
		spellings[i] = fmt.Sprintf("conc-%04x-%d", i*2654435761, i)
	}
	ids := make([][]FH, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		ids[g] = make([]FH, handles)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Interleave orders so goroutines race on first-sight
			// interning of the same spellings.
			for i := 0; i < handles; i++ {
				k := (i*7 + g*13) % handles
				if g%2 == 0 {
					ids[g][k] = InternFHBytes([]byte(spellings[k]))
				} else {
					ids[g][k] = InternFH(spellings[k])
				}
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range spellings {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got %d for %q, goroutine 0 got %d",
					g, ids[g][i], spellings[i], ids[0][i])
			}
		}
	}
	for i, s := range spellings {
		if got := ids[0][i].String(); got != s {
			t.Fatalf("reverse lookup %q after concurrent intern: %q", s, got)
		}
	}
}

// TestInternProcVocabulary: the fixed vocabulary has stable IDs with
// exact string round-trips, and the v3 prefix matches the v3 procedure
// numbering.
func TestInternProcVocabulary(t *testing.T) {
	for id, name := range staticProcNames {
		got, err := InternProc(name)
		if err != nil || got != ProcID(id) {
			t.Fatalf("InternProc(%q) = %d, %v; want %d", name, got, err, id)
		}
		if s := ProcID(id).String(); s != name {
			t.Fatalf("ProcID(%d).String() = %q, want %q", id, s, name)
		}
	}
	if ProcRead != 6 || ProcWrite != 7 || ProcCommit != 21 {
		t.Fatal("v3 procedure numbers must match their ProcIDs")
	}
	if MustProc("read") != ProcRead {
		t.Fatal("MustProc disagrees with the constant")
	}
}

// TestInternProcVocabularyTakesNoLock: the fixed vocabulary is answered
// before procTable.mu, so a held write lock (a dynamic registration in
// progress) does not stall the decoders on names they see every record.
func TestInternProcVocabularyTakesNoLock(t *testing.T) {
	procTable.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id, name := range staticProcNames {
			if got, err := InternProc(name); err != nil || got != ProcID(id) {
				t.Errorf("InternProc(%q) = %d, %v; want %d", name, got, err, id)
			}
			if got, err := InternProcBytes([]byte(name)); err != nil || got != ProcID(id) {
				t.Errorf("InternProcBytes(%q) = %d, %v; want %d", name, got, err, id)
			}
		}
	}()
	stalled := false
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		stalled = true
	}
	procTable.mu.Unlock()
	<-done
	if stalled {
		t.Fatal("interning a fixed procedure name waited for procTable.mu")
	}
}

// TestInternProcDynamic: unknown names register once and round-trip.
func TestInternProcDynamic(t *testing.T) {
	id, err := InternProc("intern-test-proc")
	if err != nil {
		t.Skipf("dynamic table exhausted by earlier tests: %v", err)
	}
	if id < numStaticProcs {
		t.Fatalf("dynamic name landed on a static ID %d", id)
	}
	if id.String() != "intern-test-proc" {
		t.Fatalf("round trip: %q", id.String())
	}
	again, err := InternProcBytes([]byte("intern-test-proc"))
	if err != nil || again != id {
		t.Fatalf("re-intern: %d, %v", again, err)
	}
}

// TestInternIDStableAcrossMerges decodes two trace files that share
// handles — serially, on two concurrent read-aheads, and merged — and
// requires the same handle spelling to resolve to the same ID
// everywhere, which is what lets multi-file trace sets feed ID-keyed
// reducers directly.
func TestInternIDStableAcrossMerges(t *testing.T) {
	mkTrace := func(seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w := NewWriter(&buf)
		tm := 1000.0
		for i := 0; i < 200; i++ {
			tm += rng.Float64() * 0.01
			r := &Record{
				Time: tm, Kind: KindCall, Client: 5, Port: 800, Server: 1,
				Proto: ProtoUDP, XID: uint32(i), Version: 3, Proc: ProcRead,
				// Handles shared across both files.
				FH:     InternFH(fmt.Sprintf("merge-fh-%02d", rng.Intn(40))),
				Offset: uint64(i) * 8192, Count: 8192,
			}
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fileA, fileB := mkTrace(1), mkTrace(2)

	collect := func(srcs ...RecordSource) map[string]FH {
		out := make(map[string]FH)
		m := NewMerger(srcs...)
		for {
			r, err := m.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			spelling := r.FH.String()
			if prev, ok := out[spelling]; ok && prev != r.FH {
				t.Fatalf("handle %q mapped to both %d and %d", spelling, prev, r.FH)
			}
			out[spelling] = r.FH
		}
	}

	serial := collect(NewReader(bytes.NewReader(fileA)), NewReader(bytes.NewReader(fileB)))
	raA, err := NewReadAhead(bytes.NewReader(fileA))
	if err != nil {
		t.Fatal(err)
	}
	raB, err := NewReadAhead(bytes.NewReader(fileB))
	if err != nil {
		t.Fatal(err)
	}
	parallel := collect(raA, raB)

	if len(serial) == 0 || len(parallel) != len(serial) {
		t.Fatalf("handle sets differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for spelling, id := range serial {
		if parallel[spelling] != id {
			t.Fatalf("handle %q: serial ID %d, parallel ID %d", spelling, id, parallel[spelling])
		}
	}
}
