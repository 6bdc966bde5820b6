package sock

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/rpc"
)

// tcpPair returns the two ends of a TCP loopback connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		a.Close()
		t.Fatal("accept failed")
	}
	return a, b
}

// TestWriteRecordPartsOverTCP: over a TCP connection, where a record
// past the write buffer goes out in one writev, the byte stream is the
// record marking of the joined messages, in order.
func TestWriteRecordPartsOverTCP(t *testing.T) {
	records := [][][]byte{
		{{0x03}, nil, bytes.Repeat([]byte("chunk"), 9000)},
		{[]byte("x")},
		{bytes.Repeat([]byte{'a'}, 3000), bytes.Repeat([]byte{'b'}, 3000)},
		{},
		{bytes.Repeat([]byte{'c'}, 100), {}, bytes.Repeat([]byte{'d'}, 40000)},
		{bytes.Repeat([]byte{'e'}, 17)},
	}
	var want []byte
	for _, parts := range records {
		want = append(want, rpc.MarkRecord(bytes.Join(parts, nil))...)
	}
	a, b := tcpPair(t)
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		defer a.Close()
		rc := NewRecordConn(a)
		for _, parts := range records {
			if err := rc.WriteRecordParts(parts...); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("TCP stream of %d bytes differs from the %d-byte record marking of the joined messages", len(got), len(want))
	}
}

// TestFullDuplexOverTCP writes 32 KiB records, each one writev, from
// both ends of a TCP connection while each end's reader reads the
// other's into one reused buffer. Under -race it fails if the writer's
// iovecs and the reader share anything.
func TestFullDuplexOverTCP(t *testing.T) {
	const records = 300
	msg := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 32<<10+i%97) }
	a, b := tcpPair(t)
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	for _, end := range []net.Conn{a, b} {
		c := NewRecordConn(end)
		wg.Add(2)
		// A failure closes both ends so the other goroutines error out
		// instead of blocking forever.
		fail := func(format string, args ...any) {
			t.Errorf(format, args...)
			a.Close()
			b.Close()
		}
		go func() {
			defer wg.Done()
			for i := 0; i < records; i++ {
				if err := c.WriteRecord(msg(i)); err != nil {
					fail("write %d: %v", i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < records; i++ {
				got, err := c.ReadRecordInto(buf)
				if err != nil {
					fail("read %d: %v", i, err)
					return
				}
				if !bytes.Equal(got, msg(i)) {
					fail("record %d: got %d bytes, want %d", i, len(got), len(msg(i)))
					return
				}
				buf = got
			}
		}()
	}
	wg.Wait()
}
