package core

// Native fuzz targets for the trace codecs. The ingest layer is the
// part of the system that eats untrusted bytes — archived traces from
// other tools, damaged disks, truncated transfers — so the contract
// under fuzzing is: malformed input returns an error, never a panic,
// and the read-ahead front end is indistinguishable from the serial
// reader on every input, good or bad.

import (
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"
	"time"
)

// textRecordSeeds is the seed corpus of the text-line targets: real
// trace lines (representative call/reply shapes from the generator,
// escaping torture), comments, and near-misses.
func textRecordSeeds() []string {
	var seeds []string
	rng := rand.New(rand.NewSource(7))
	tm := 1000.0
	for i := 0; i < 12; i++ {
		tm += rng.Float64() * 0.01
		seeds = append(seeds, randomRecord(rng, tm).Marshal())
	}
	esc := sampleCall()
	esc.Proc = MustProc("lookup")
	esc.Name = "spa ced\ttab\\slash=eq\nnl"
	seeds = append(seeds, esc.Marshal(), sampleReply().Marshal(),
		"# comment line",
		"",
		"1.0 C 1.2 3 U 5 3 read uid=0 gid=0",
		"1.0 Z 1.2 3 U 5 3 read",
		"xxx C 1.2 3 U 5 3 read uid=0",
		// Tokenizer edges: exotic separators, the float fast-path
		// boundaries and its strconv fallback, saturating kv values, hex
		// case, and dynamically interned procedure names.
		"1.0\tC\t1.2 3\vU\r5 3 read uid=0 gid=0",
		"1e5 C 1.2 3 U 5 3 read uid=0 gid=0",
		"9007199254740993.5 C 1.2 3 U 5 3 read uid=0 gid=0",
		"1.1234567 C 1.2 3 U 5 3 read mtime=2.9999999 uid=0 gid=0",
		"1.0 C aB.65535 FFFF U ffffffff 4294967295 read off=99999999999999999999 count=99999999999999999999 uid=0 gid=0",
		"1.0 C 1.2 3 U 5 3 some-unseen-proc fh=00ff newfh=00FF name=a\\sb eof=1",
		"1.0 C 1.2 3 U 5 3 read = =x x= fh= uid=0 gid=0",
		"1.0 C 1.2 3 U 5 3 read off=12x count=99999999999x stable= uid=9=9 gid=0",
		// Each header error, which must quote its field.
		"1.0 C zz.7 3 U 5 3 read uid=0",
		"1.0 C 1.x7 3 U 5 3 read uid=0",
		"1.0 C 1.2 3 UU 5 3 read uid=0",
		"1.0 C 1.2 3 U 5 3",
	)
	return seeds
}

// FuzzTextRecord fuzzes the text-format line parser: arbitrary lines
// must parse or error (never panic), and any line it accepts must
// marshal back to a line it accepts again.
func FuzzTextRecord(f *testing.F) {
	for _, line := range textRecordSeeds() {
		f.Add(line)
	}

	f.Fuzz(func(t *testing.T, line string) {
		rec, err := UnmarshalRecord(line)
		if err != nil {
			if rec != nil {
				t.Fatalf("error %v returned alongside a record", err)
			}
			return
		}
		canonical := rec.Marshal()
		if _, err := UnmarshalRecord(canonical); err != nil {
			t.Fatalf("accepted %q but rejected its canonical form %q: %v", line, canonical, err)
		}
	})
}

// fuzzBytes reads values from fuzz input, little-endian, and zeros
// once the input is exhausted.
type fuzzBytes struct {
	data []byte
	cur  int
}

func (f *fuzzBytes) next() byte {
	if f.cur >= len(f.data) {
		return 0
	}
	b := f.data[f.cur]
	f.cur++
	return b
}

func (f *fuzzBytes) u16() uint16 { return uint16(f.next()) | uint16(f.next())<<8 }
func (f *fuzzBytes) u32() uint32 { return uint32(f.u16()) | uint32(f.u16())<<16 }
func (f *fuzzBytes) u64() uint64 { return uint64(f.u32()) | uint64(f.u32())<<32 }

// str reads a string of up to 23 arbitrary bytes.
func (f *fuzzBytes) str() string {
	b := make([]byte, int(f.next())%24)
	for i := range b {
		b[i] = f.next()
	}
	return string(b)
}

// fuzzRecords derives well-formed records deterministically from fuzz
// bytes, respecting the writer's field invariants (times are µs-
// aligned and non-negative; SetSize/PreSize only travel with their
// presence flags) so a write→read round trip must be exact.
func fuzzRecords(data []byte) []*Record {
	fb := &fuzzBytes{data: data}
	next, u16, u32, u64, str := fb.next, fb.u16, fb.u32, fb.u64, fb.str
	// Proc is an interned byte-sized ID; derive it from the fuzz bytes
	// through the intern table. Should a long fuzz campaign exhaust the
	// table's dynamic space, collapse to "null" — the round trip still
	// holds, IDs being equal.
	proc := func() ProcID {
		id, err := InternProc(str())
		if err != nil {
			return ProcNull
		}
		return id
	}
	n := int(next())%6 + 1
	records := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		r := &Record{
			Time: float64(u32()) / 1e6, Proto: next(),
			Client: u32(), Port: u16(), Server: u32(), XID: u32(),
			Version: u32(), Proc: proc(), UID: u32(), GID: u32(),
			FH: InternFH(str()), Name: str(), FH2: InternFH(str()), Name2: str(),
			Offset: u64(), Count: u32(), Stable: u32(),
			Status: u32(), RCount: u32(), Size: u64(), FileID: u64(),
			Mtime: float64(u32()) / 1e6, NewFH: InternFH(str()),
			EOF: next()%2 == 0,
		}
		r.Kind = KindCall
		if next()%2 == 0 {
			r.Kind = KindReply
		}
		if next()%2 == 0 {
			r.HasSet, r.SetSize = true, u64()
		}
		if next()%2 == 0 {
			r.HasPre, r.PreSize = true, u64()
		}
		records = append(records, r)
	}
	return records
}

// binaryFuzzSeeds are the seeds of the binary reader's fuzz targets: a
// stream of eight records, cut and extended, and inputs that are no
// trace at all.
func binaryFuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(11))
	var seed bytes.Buffer
	w := NewBinaryWriter(&seed)
	tm := 1000.0
	for i := 0; i < 8; i++ {
		tm += rng.Float64() * 0.01
		w.Write(randomRecord(rng, tm))
	}
	w.Flush()
	stream := seed.Bytes()
	return [][]byte{
		stream,
		stream[:len(stream)-3], // truncated payload
		stream[:9],             // truncated just past the magic
		append(append([]byte{}, stream...), 0x80), // dangling varint
		{},
		[]byte("NOTATRACE"),
		binaryMagic[:],
	}
}

// FuzzBinaryRoundTrip fuzzes the binary format from both sides: the
// reader must survive arbitrary bytes (truncated varints and payloads
// return errors, never panic or spin), and records derived from the
// bytes must survive a write→read round trip exactly.
func FuzzBinaryRoundTrip(f *testing.F) {
	for _, seed := range binaryFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		// (a) Arbitrary bytes: errors are fine, panics and infinite
		// loops are not. Every record consumes input, so the stream is
		// exhausted within len(data) reads.
		br := NewBinaryReader(bytes.NewReader(data))
		for i := 0; i <= len(data); i++ {
			if _, err := br.Next(); err != nil {
				break
			}
		}

		// (b) Round trip: write records derived from the bytes, read
		// them back, require exact equality.
		records := fuzzRecords(data)
		var buf bytes.Buffer
		bw := NewBinaryWriter(&buf)
		for _, r := range records {
			if err := bw.Write(r); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		rd := NewBinaryReader(bytes.NewReader(buf.Bytes()))
		for i, want := range records {
			got, err := rd.Next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if *got != *want {
				t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want)
			}
		}
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("after %d records: %v, want EOF", len(records), err)
		}
	})
}

// textFuzzRecords derives records from fuzz bytes, restricted to what
// the text format carries: hex handle spellings, procedures of the
// fixed vocabulary, a U or T protocol tag, and only the call or the
// reply fields, by kind. Names are arbitrary bytes.
func textFuzzRecords(data []byte) []*Record {
	fb := &fuzzBytes{data: data}
	handle := func() FH { return InternFH(hex.EncodeToString([]byte(fb.str()))) }
	n := int(fb.next())%6 + 1
	records := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		r := &Record{
			Time: float64(fb.u32()) / 1e6, Kind: KindCall, Proto: ProtoUDP,
			Client: fb.u32(), Port: fb.u16(), Server: fb.u32(), XID: fb.u32(),
			Version: fb.u32(), Proc: ProcID(fb.next() % byte(numStaticProcs)),
		}
		flags := fb.next()
		if flags&1 != 0 {
			r.Proto = ProtoTCP
		}
		if flags&2 == 0 {
			r.UID, r.GID = fb.u32(), fb.u32()
			r.FH, r.Name, r.FH2, r.Name2 = handle(), fb.str(), handle(), fb.str()
			r.Offset, r.Count, r.Stable = fb.u64(), fb.u32(), fb.u32()
			if flags&4 != 0 {
				r.HasSet, r.SetSize = true, fb.u64()
			}
		} else {
			r.Kind = KindReply
			r.Status, r.RCount, r.Size, r.FileID = fb.u32(), fb.u32(), fb.u64(), fb.u64()
			r.Mtime, r.NewFH, r.EOF = float64(fb.u32())/1e6, handle(), flags&8 != 0
			if flags&4 != 0 {
				r.HasPre, r.PreSize = true, fb.u64()
			}
		}
		records = append(records, r)
	}
	return records
}

// FuzzTextRoundTrip is the text twin of FuzzBinaryRoundTrip's round
// trip: records derived from the bytes, names of any bytes included,
// must read back exactly as they were written.
func FuzzTextRoundTrip(f *testing.F) {
	f.Add([]byte{})
	// One call whose name holds every byte the escapes protect, and
	// invalid UTF-8: a zero count byte, header and flags, uid and gid,
	// an empty handle, then the name.
	name := "a\r\v\f\t\n =\\\xff"
	seed := append(make([]byte, 1+23+1+8+1), byte(len(name)))
	f.Add(append(seed, name...))
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 4; i++ {
		b := make([]byte, 200)
		rng.Read(b)
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		records := textFuzzRecords(data)
		var buf bytes.Buffer
		if err := WriteAll(&buf, records); err != nil {
			t.Fatalf("write: %v", err)
		}
		rd := NewReader(&buf)
		for i, want := range records {
			got, err := rd.Next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if *got != *want {
				t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want)
			}
		}
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("after %d records: %v, want EOF", len(records), err)
		}
	})
}

// FuzzIngestEquivalence is the differential target: on any input —
// text, binary, gzip, or garbage — the read-ahead must yield exactly the
// records, order, and terminal error of the serial reader DetectSource
// picks. A second read-ahead over the same input is stopped at a record
// index derived from the input, and must then end promptly.
func FuzzIngestEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	records := make([]*Record, 0, 40)
	tm := 1000.0
	for i := 0; i < 40; i++ {
		tm += rng.Float64() * 0.01
		records = append(records, randomRecord(rng, tm))
	}
	var text bytes.Buffer
	text.WriteString("# header\n")
	for _, r := range records {
		text.WriteString(r.Marshal())
		text.WriteByte('\n')
	}
	f.Add(text.Bytes())
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	for _, r := range records {
		bw.Write(r)
	}
	bw.Flush()
	f.Add(bin.Bytes())
	f.Add(bin.Bytes()[:bin.Len()-5])
	f.Add([]byte("1.0 C 1.2 3 U 5 3 read uid=0 gid=0\ngarbage\n"))
	f.Add([]byte{0x1f, 0x8b, 0x08}) // gzip magic, truncated header
	f.Add([]byte{})
	// New-tokenizer seeds: both front ends must tokenize these the same
	// way — exotic separators, float fallbacks, interned unknown procs,
	// and saturating values.
	f.Add([]byte("1.0\tC\t1.2 3\vU\r5 3 read uid=0 gid=0\n1e5 C 1.2 3 U 5 3 equiv-proc fh=ab off=18446744073709551616\n"))
	f.Add([]byte("9007199254740993.25 C aB.65535 FFFF U ffffffff 3 lookup fh=00ff name=x newfh=00FF\n# c\n\n1.1234567 R 1.2 3 U 5 3 read status=0 mtime=1e-3\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		serialSrc, serialOpenErr := DetectSource(bytes.NewReader(data))
		ra, raOpenErr := NewReadAhead(bytes.NewReader(data))
		if (serialOpenErr == nil) != (raOpenErr == nil) {
			t.Fatalf("open: serial err %v, read-ahead err %v", serialOpenErr, raOpenErr)
		}
		if serialOpenErr != nil {
			if serialOpenErr.Error() != raOpenErr.Error() {
				t.Fatalf("open errors differ: %v vs %v", serialOpenErr, raOpenErr)
			}
			return
		}
		want, wantErr := drain(serialSrc)
		got, gotErr := drain(ra)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("terminal error: read-ahead %v vs serial %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("read-ahead yielded %d records, serial %d", len(got), len(want))
		}
		for i := range want {
			if *got[i] != *want[i] {
				t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}

		stopAt := len(data) % (len(want) + 1)
		ra, _ = NewReadAhead(bytes.NewReader(data))
		for i := 0; i < stopAt; i++ {
			if _, err := ra.Next(); err != nil {
				t.Fatalf("record %d before Stop: %v", i, err)
			}
		}
		ra.Stop()
		ended := make(chan error, 1)
		go func() {
			for {
				if _, err := ra.Next(); err != nil {
					ended <- err
					return
				}
			}
		}()
		select {
		case err := <-ended:
			if err != ErrReaderStopped && err != io.EOF && (wantErr == nil || err.Error() != wantErr.Error()) {
				t.Fatalf("after Stop at record %d: %v", stopAt, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Next did not end after Stop at record %d", stopAt)
		}
	})
}
