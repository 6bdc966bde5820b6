package nfs

import (
	"testing"

	"repro/internal/xdr"
)

// Codec benchmarks: the sniffer decodes one of these per captured NFS
// message, so these paths bound trace-processing throughput.

func BenchmarkEncodeReadArgs3(b *testing.B) {
	args := &ReadArgs3{FH: MakeFH(7), Offset: 1 << 20, Count: 8192}
	e := xdr.NewEncoder(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		if err := EncodeArgs3(e, V3Read, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeReadArgs3(b *testing.B) {
	e := xdr.NewEncoder(64)
	if err := EncodeArgs3(e, V3Read, &ReadArgs3{FH: MakeFH(7), Offset: 1 << 20, Count: 8192}); err != nil {
		b.Fatal(err)
	}
	body := e.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeArgs3(V3Read, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRes3 decodes the replies a client and the sniffer see
// most: READ and LOOKUP carry attributes, READDIR a list of entries.
func BenchmarkDecodeRes3(b *testing.B) {
	attr := &Fattr{Type: TypeReg, Mode: 0644, Nlink: 1, Size: 2 << 20, FileID: 42, Mtime: Time{Sec: 1000}}
	for _, c := range []struct {
		name string
		proc uint32
		res  any
	}{
		{"read", V3Read, &ReadRes3{Status: OK, Attr: attr, Count: 8192, Data: make([]byte, 8192)}},
		{"readdir", V3Readdir, &ReaddirRes3{Status: OK, DirAttr: attr, EOF: true, Entries: []DirEntry{
			{FileID: 2, Name: ".", Cookie: 1}, {FileID: 1, Name: "..", Cookie: 2},
			{FileID: 100, Name: "inbox.lock", Cookie: 3}, {FileID: 101, Name: ".pinerc", Cookie: 4}}}},
		{"lookup", V3Lookup, &LookupRes3{Status: OK, FH: MakeFH(77), Attr: attr, DirAttr: attr}},
	} {
		e := xdr.NewEncoder(9000)
		if err := EncodeRes3(e, c.proc, c.res); err != nil {
			b.Fatal(err)
		}
		body := e.Bytes()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeRes3(c.proc, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParseCallSemantic(b *testing.B) {
	e := xdr.NewEncoder(64)
	if err := EncodeArgs3(e, V3Write, &WriteArgs3{FH: MakeFH(7), Offset: 8192,
		Count: 8192, Stable: Unstable, Data: make([]byte, 8192)}); err != nil {
		b.Fatal(err)
	}
	body := e.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseCall(V3, V3Write, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFattr3RoundTrip(b *testing.B) {
	a := &Fattr{Type: TypeReg, Mode: 0644, Nlink: 1, Size: 2 << 20,
		FileID: 42, Mtime: Time{Sec: 1000}}
	e := xdr.NewEncoder(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		EncodeFattr3(e, a)
		d := xdr.NewDecoder(e.Bytes())
		var got Fattr
		decodeFattr3(d, &got)
		if err := d.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
