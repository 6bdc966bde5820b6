// Package sock frames network connections with wire.RecordConn and
// sends each record larger than the write buffer as one net.Buffers
// write: one writev on a TCP connection. It is a package of its own so
// that package wire, which programs that only decode packets import,
// does not link package net.
package sock

import (
	"net"

	"repro/internal/wire"
)

// NewRecordConn is wire.NewRecordConn for a network connection.
func NewRecordConn(conn net.Conn) *wire.RecordConn {
	return wire.NewRecordConn(&buffersConn{Conn: conn})
}

// buffersConn is a net.Conn that is a wire.BuffersWriter.
type buffersConn struct {
	net.Conn
	out net.Buffers // the cursor WriteTo consumes; the writer's alone
}

// WriteBuffers implements wire.BuffersWriter.
func (c *buffersConn) WriteBuffers(bufs [][]byte) (int64, error) {
	c.out = bufs
	return c.out.WriteTo(c.Conn)
}
