package netem

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipeEcho gives a wrapped conn whose peer slurps everything written,
// delivering the bytes (and the close) to the returned channels.
func pipeEcho(t *testing.T, cfg ConnConfig) (*Conn, <-chan []byte) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(b)
		got <- data
	}()
	return WrapConn(a, cfg), got
}

func TestConnPassthrough(t *testing.T) {
	c, got := pipeEcho(t, ConnConfig{Seed: 1})
	if n, err := c.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	c.Close()
	if string(<-got) != "hello" {
		t.Fatal("bytes did not pass through")
	}
	if c.Severed() {
		t.Fatal("clean conn reported severed")
	}
}

func TestConnLatencyDelaysWrites(t *testing.T) {
	c, _ := pipeEcho(t, ConnConfig{Latency: 30 * time.Millisecond, Seed: 1})
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("write returned after %v, before the configured latency", d)
	}
	c.Close()
}

func TestConnJitterVariesDelay(t *testing.T) {
	c, _ := pipeEcho(t, ConnConfig{Jitter: 5 * time.Millisecond, Seed: 7})
	// With pure jitter the delays differ write to write; just assert
	// the writes all succeed and the conn stays healthy.
	for i := 0; i < 10; i++ {
		if _, err := c.Write([]byte("y")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	c.Close()
}

func TestConnCutAfterBytes(t *testing.T) {
	c, got := pipeEcho(t, ConnConfig{CutAfterBytes: 4, Seed: 1})
	n, err := c.Write([]byte("abcdef"))
	if n != 4 || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("cut write: n=%d err=%v", n, err)
	}
	if !c.Severed() {
		t.Fatal("conn not marked severed after budget cut")
	}
	if string(<-got) != "abcd" {
		t.Fatal("peer did not receive the pre-cut prefix")
	}
	if _, err := c.Write([]byte("zz")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after sever: %v", err)
	}
}

func TestConnCutExactlyAtBoundary(t *testing.T) {
	c, got := pipeEcho(t, ConnConfig{CutAfterBytes: 3, Seed: 1})
	n, err := c.Write([]byte("abc"))
	if n != 3 || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("boundary write: n=%d err=%v", n, err)
	}
	if string(<-got) != "abc" {
		t.Fatal("peer missing the final budgeted bytes")
	}
}

func TestConnDropSevers(t *testing.T) {
	c, got := pipeEcho(t, ConnConfig{DropProb: 1, Seed: 1})
	n, err := c.Write([]byte("lost"))
	if n != 0 || !errors.Is(err, net.ErrClosed) {
		t.Fatalf("dropped write: n=%d err=%v", n, err)
	}
	if !c.Severed() {
		t.Fatal("conn not severed by drop")
	}
	if len(<-got) != 0 {
		t.Fatal("dropped bytes reached the peer")
	}
}

func TestConnDropProbabilityRespectsSeed(t *testing.T) {
	// With p=0.5 and a fixed seed, the sever point is deterministic:
	// two identically configured conns sever on the same write.
	sever := func() int {
		c, _ := pipeEcho(t, ConnConfig{DropProb: 0.5, Seed: 42})
		for i := 1; i <= 64; i++ {
			if _, err := c.Write([]byte("b")); err != nil {
				return i
			}
		}
		return 0
	}
	first, second := sever(), sever()
	if first == 0 || first != second {
		t.Fatalf("sever points %d vs %d not deterministic", first, second)
	}
}

func TestConnHoldUntilReleased(t *testing.T) {
	release := make(chan struct{})
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	c := WrapConn(a, ConnConfig{HoldAfterBytes: 4, Release: release, Seed: 1})
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("abcdef"))
		wrote <- err
	}()
	// The prefix up to the budget arrives; the rest is held.
	head := make([]byte, 4)
	if _, err := io.ReadFull(b, head); err != nil || string(head) != "abcd" {
		t.Fatalf("prefix: %q err %v", head, err)
	}
	select {
	case err := <-wrote:
		t.Fatalf("write returned (%v) while held", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	tail := make([]byte, 2)
	if _, err := io.ReadFull(b, tail); err != nil || string(tail) != "ef" {
		t.Fatalf("tail after release: %q err %v", tail, err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("held write: %v", err)
	}
	// Once released the hold is spent: later writes pass straight through.
	go c.Write([]byte("gh"))
	if _, err := io.ReadFull(b, tail); err != nil || string(tail) != "gh" {
		t.Fatalf("write after release: %q err %v", tail, err)
	}
}

func TestConnStallEndsAtClose(t *testing.T) {
	// No Release: the peer has stopped reading for good, and only closing
	// the connection gets the writer back.
	c, got := pipeEcho(t, ConnConfig{HoldAfterBytes: 2, Seed: 1})
	wrote := make(chan error, 1)
	var n int
	go func() {
		var err error
		n, err = c.Write([]byte("abcd"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("stalled write returned: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.Close()
	if err := <-wrote; !errors.Is(err, net.ErrClosed) || n != 2 {
		t.Fatalf("stalled write after close: n=%d err=%v", n, err)
	}
	if string(<-got) != "ab" {
		t.Fatal("peer did not receive exactly the pre-stall prefix")
	}
}
