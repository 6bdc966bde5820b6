package core

import (
	"bytes"
	"io"
	"testing"
)

// benchIngest drains one full pass over data through a front end
// and reports bytes/sec of trace input. Records are recycled the way
// the streaming Joiner recycles them, so they go back to the decoder
// in batches as they do in a run: for the read-ahead, from this
// goroutine to its decode goroutine.
func benchIngest(b *testing.B, data []byte, open func(io.Reader) (RecordSource, error)) {
	b.Helper()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := open(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		rec, _ := src.(RecordRecycler)
		for {
			r, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if rec != nil {
				rec.Recycle(r)
			}
		}
	}
}

// BenchmarkUnmarshalRecordBytes measures the in-place text tokenizer on
// a representative data-call line (the ingest hot path).
func BenchmarkUnmarshalRecordBytes(b *testing.B) {
	r := &Record{
		Time: 1003680000.004742, Kind: KindCall,
		Client: 0x0a000005, Port: 801, Server: 0x0a000001, Proto: ProtoUDP,
		XID: 0xa2f3, Version: 3, Proc: ProcRead,
		FH: InternFH("0000000000000007"), Offset: 8192, Count: 8192, UID: 501, GID: 100,
	}
	line := []byte(r.Marshal())
	var rec Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = Record{}
		if err := UnmarshalRecordBytes(line, &rec); err != nil {
			b.Fatal(err)
		}
	}
	_ = rec
}

// BenchmarkAppendMarshal measures the append-style serialization path
// used by the text writer (nfsconvert/nfsgen).
func BenchmarkAppendMarshal(b *testing.B) {
	r := &Record{
		Time: 1003680000.004742, Kind: KindCall,
		Client: 0x0a000005, Port: 801, Server: 0x0a000001, Proto: ProtoUDP,
		XID: 0xa2f3, Version: 3, Proc: ProcRead,
		FH: InternFH("0000000000000007"), Offset: 8192, Count: 8192, UID: 501, GID: 100,
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendMarshal(buf[:0])
		if len(buf) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkInternFH measures the intern hit path (every handle after
// its first sight).
func BenchmarkInternFH(b *testing.B) {
	handles := make([][]byte, 512)
	for i := range handles {
		r := &Record{}
		r.FH = InternFH(string(rune('a'+i%26)) + "bench-fh" + string(rune('0'+i%10)))
		handles[i] = []byte(r.FH.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if InternFHBytes(handles[i%len(handles)]) == 0 {
			b.Fatal("zero id")
		}
	}
}

func BenchmarkIngestText(b *testing.B) {
	data := noisyText(ingestRecords(100000))
	b.Run("serial", func(b *testing.B) {
		benchIngest(b, data, func(r io.Reader) (RecordSource, error) { return NewReader(r), nil })
	})
	b.Run("readahead", func(b *testing.B) { benchIngest(b, data, openReadAhead) })
}

func BenchmarkIngestBinary(b *testing.B) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range ingestRecords(100000) {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	w.Flush()
	data := buf.Bytes()
	b.Run("serial", func(b *testing.B) {
		benchIngest(b, data, func(r io.Reader) (RecordSource, error) { return NewBinaryReader(r), nil })
	})
	b.Run("readahead", func(b *testing.B) { benchIngest(b, data, openReadAhead) })
}

func openReadAhead(r io.Reader) (RecordSource, error) { return NewReadAhead(r) }
