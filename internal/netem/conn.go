package netem

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// ConnConfig shapes a WrapConn impairment: added latency and jitter on
// every write, random whole-write drops (the connection is severed, as
// TCP cannot silently lose bytes), a hard cut after a byte budget
// (models a worker or path dying mid-stream), and a hold after a byte
// budget (models a peer that stops reading with the connection open).
type ConnConfig struct {
	// Latency delays each Write by this much before the bytes move.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// DropProb severs the connection with this probability per Write.
	DropProb float64
	// CutAfterBytes severs the connection once this many bytes have
	// been written through it (0 = never).
	CutAfterBytes int64
	// HoldAfterBytes blocks the write that would carry the total past
	// this many bytes (0 = never): the prefix up to the budget is
	// delivered, the rest waits for Release or for Close.
	HoldAfterBytes int64
	// Release ends the hold when it is closed or sent to. A nil Release
	// never comes: the connection stalls until it is closed.
	Release <-chan struct{}
	// Seed makes the jitter and drop schedule reproducible.
	Seed int64
}

// Conn wraps a real net.Conn with the impairments in ConnConfig.
// Reads pass through untouched — the peer's writes carry the delays.
type Conn struct {
	net.Conn
	cfg ConnConfig

	mu      sync.Mutex
	rng     *rand.Rand
	written int64
	cut     bool

	released  bool
	closed    chan struct{} // closed by Close, so a held write can give up
	closeOnce sync.Once
}

// WrapConn impairs an established connection.
func WrapConn(c net.Conn, cfg ConnConfig) *Conn {
	return &Conn{Conn: c, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), closed: make(chan struct{})}
}

// Close releases a held write, then closes the wrapped connection.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Write holds at the HoldAfterBytes budget until released, then passes
// each part through the other impairments.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	pre := -1
	if h := c.cfg.HoldAfterBytes; h > 0 && !c.released && c.written+int64(len(p)) > h {
		pre = int(max(h-c.written, 0))
	}
	c.mu.Unlock()
	if pre < 0 {
		return c.write(p)
	}
	n, err := c.write(p[:pre])
	if err != nil {
		return n, err
	}
	select {
	case <-c.cfg.Release:
	case <-c.closed:
		return n, net.ErrClosed
	}
	c.mu.Lock()
	c.released = true
	c.mu.Unlock()
	m, err := c.write(p[pre:])
	return n + m, err
}

// write delays, maybe severs, and otherwise forwards to the wrapped
// connection. Once severed every call fails with net.ErrClosed.
func (c *Conn) write(p []byte) (int, error) {
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	delay := c.cfg.Latency
	if c.cfg.Jitter > 0 {
		delay += time.Duration(c.rng.Int63n(int64(c.cfg.Jitter)))
	}
	if c.cfg.DropProb > 0 && c.rng.Float64() < c.cfg.DropProb {
		// A probabilistic sever loses the whole write: nothing moves.
		c.cut = true
		c.mu.Unlock()
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	n := len(p)
	cut := false
	if budget := c.cfg.CutAfterBytes; budget > 0 && c.written+int64(n) >= budget {
		// The budget cut delivers the prefix up to the budget, then
		// dies — the peer sees a mid-stream truncation.
		n = int(budget - c.written)
		cut = true
		c.cut = true
	}
	c.written += int64(n)
	c.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if n > 0 {
		if _, err := c.Conn.Write(p[:n]); err != nil {
			return 0, err
		}
	}
	if cut {
		c.Conn.Close()
		return n, net.ErrClosed
	}
	return n, nil
}

// Severed reports whether the impairment layer has cut the connection.
func (c *Conn) Severed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cut
}
