package xdr

import "testing"

func BenchmarkEncoderPrimitives(b *testing.B) {
	e := NewEncoder(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutUint32(uint32(i))
		e.PutUint64(uint64(i) << 20)
		e.PutBool(i&1 == 0)
		e.PutString("inbox.lock")
	}
}

func BenchmarkDecoderPrimitives(b *testing.B) {
	e := NewEncoder(64)
	e.PutUint32(7)
	e.PutUint64(1 << 40)
	e.PutBool(true)
	e.PutString("inbox.lock")
	buf := e.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		if d.Uint32() != 7 || d.Uint64() != 1<<40 || !d.Bool() || d.String() != "inbox.lock" {
			b.Fatal(d.Err())
		}
	}
}

func BenchmarkOpaque8K(b *testing.B) {
	payload := make([]byte, 8192)
	e := NewEncoder(8200)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutOpaque(payload)
		d := NewDecoder(e.Bytes())
		if got := d.Opaque(); d.Err() != nil || len(got) != 8192 {
			b.Fatal("round trip failed")
		}
	}
}
