package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// memoSpellings returns n distinct handle spellings of 16, 32, 64 and
// 128 hex digits that share long prefixes and suffixes, as the handles
// of one server do: only eight digits in the middle tell them apart.
func memoSpellings(n int) []string {
	out := make([]string, n)
	for i := range out {
		pad := ([]int{16, 32, 64, 128}[i%4] - 8) / 2
		out[i] = strings.Repeat("0", pad) + fmt.Sprintf("%08x", i) + strings.Repeat("f", pad)
	}
	return out
}

// TestFHMemoAgreesWithTable decodes a binary trace that names 20 000
// handles, many more than a memo holds, on two readers at once, each on
// its own goroutine, and requires every handle to be the one the
// process-wide table assigns its spelling.
func TestFHMemoAgreesWithTable(t *testing.T) {
	spellings := memoSpellings(20000)
	// A hash of part of the spelling would crowd the handles of one
	// length into few slots.
	slots := map[int]map[uint32]bool{}
	for _, s := range spellings {
		if slots[len(s)] == nil {
			slots[len(s)] = map[uint32]bool{}
		}
		slots[len(s)][fhMemoSlot([]byte(s))] = true
	}
	for l, used := range slots {
		if len(used) < 1<<fhMemoBits-16 {
			t.Fatalf("5 000 spellings of %d digits use only %d of %d slots", l, len(used), 1<<fhMemoBits)
		}
	}
	// Each record names three handles, in orders that revisit them.
	const n = 3 * 20000
	handle := func(i, k int) string { return spellings[(i*[]int{1, 7, 13}[k])%len(spellings)] }
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	for i := 0; i < n; i++ {
		r := &Record{Time: float64(i) / 1e3, Kind: KindCall, Proto: ProtoUDP, Version: 3, Proc: ProcRename,
			FH: InternFH(handle(i, 0)), FH2: InternFH(handle(i, 1)), Name: "a", Name2: "b"}
		if i%2 == 1 {
			r = &Record{Time: r.Time, Kind: KindReply, Proto: ProtoUDP, Version: 3, Proc: ProcLookup,
				NewFH: InternFH(handle(i, 2))}
		}
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(src RecordSource) error {
		for i := 0; ; i++ {
			r, err := src.Next()
			if err == io.EOF {
				if i != n {
					return fmt.Errorf("%d records, want %d", i, n)
				}
				return nil
			}
			if err != nil {
				return err
			}
			want := [3]FH{InternFH(handle(i, 0)), InternFH(handle(i, 1)), 0}
			if i%2 == 1 {
				want = [3]FH{0, 0, InternFH(handle(i, 2))}
			}
			if got := [3]FH{r.FH, r.FH2, r.NewFH}; got != want {
				return fmt.Errorf("record %d: handles %v, want %v", i, got, want)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = check(NewBinaryReader(bytes.NewReader(bin.Bytes())))
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v", g, err)
		}
	}
}

// TestFHMemoAllocations requires a memo to allocate nothing: not on a
// hit, and not on a miss whose spelling the table already holds (the
// slot keeps the table's own copy).
func TestFHMemoAllocations(t *testing.T) {
	var m FHMemo
	// Two spellings that share a slot: more spellings than slots
	// guarantee a pair.
	var a, b []byte
	seen := map[uint32][]byte{}
	for _, s := range memoSpellings(1<<fhMemoBits + 1) {
		slot := fhMemoSlot([]byte(s))
		if seen[slot] != nil {
			a, b = seen[slot], []byte(s)
			break
		}
		seen[slot] = []byte(s)
	}
	ida, idb := InternFHBytes(a), InternFHBytes(b)
	if got := m.Intern(a); got != ida {
		t.Fatalf("intern(a) = %d, want %d", got, ida)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Intern(a) }); allocs != 0 {
		t.Errorf("hit: %v allocations", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if m.Intern(b) != idb || m.Intern(a) != ida {
			t.Fatal("wrong handle")
		}
	}); allocs != 0 {
		t.Errorf("miss: %v allocations", allocs)
	}
}
