// Package pcap reads and writes libpcap capture files, the interchange
// format between the traffic generator and the sniffer. Both the classic
// microsecond format (magic 0xa1b2c3d4) and the nanosecond variant
// (0xa1b23c4d) are supported, in either byte order.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

const (
	// MagicMicro is the standard little-endian microsecond magic.
	MagicMicro = 0xa1b2c3d4
	// MagicNano is the nanosecond-resolution magic.
	MagicNano = 0xa1b23c4d

	// LinkTypeEthernet is the DLT for Ethernet frames.
	LinkTypeEthernet = 1

	fileHeaderLen   = 24
	packetHeaderLen = 16

	// DefaultSnapLen is the capture length written in file headers.
	DefaultSnapLen = 65535
)

// ErrBadMagic reports a file that is not a pcap capture.
var ErrBadMagic = errors.New("pcap: bad magic")

// Packet is one captured frame with its arrival time.
type Packet struct {
	// Time is seconds since the epoch of the trace (the capture
	// timestamp with full sub-second precision).
	Time float64
	// Data is the captured frame, starting at the Ethernet header.
	Data []byte
	// OrigLen is the original frame length; equal to len(Data) unless
	// the frame was snapped.
	OrigLen int
}

// Writer emits a pcap file. Create with NewWriter, which writes the file
// header immediately.
type Writer struct {
	w    *bufio.Writer
	nano bool
	n    int64
}

// NewWriter writes a pcap file header to w and returns a Writer. If nano
// is true the nanosecond format is used.
func NewWriter(w io.Writer, nano bool) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [fileHeaderLen]byte
	magic := uint32(MagicMicro)
	if nano {
		magic = MagicNano
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	// thiszone, sigfigs zero.
	binary.LittleEndian.PutUint32(hdr[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, nano: nano}, nil
}

// WritePacket appends one frame with the given timestamp in seconds.
func (w *Writer) WritePacket(t float64, data []byte) error {
	var hdr [packetHeaderLen]byte
	scale := 1e6
	if w.nano {
		scale = 1e9
	}
	// Round the fraction to the nearest tick, carrying into seconds, so
	// that a Reader's time writes back as the ticks it was read from.
	sec := math.Floor(t)
	sub := math.Round((t - sec) * scale)
	if sub == scale {
		sec, sub = sec+1, 0
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(sub))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count reports the number of packets written.
func (w *Writer) Count() int64 { return w.n }

// Flush drains buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader parses a pcap file.
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	nano    bool
	snapLen uint32
	link    uint32

	hdr [packetHeaderLen]byte // packet header scratch; a local would escape through io.ReadFull
	buf []byte                // packet body storage ReadPacket reuses
}

// NewReader validates the file header of r and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	pr := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == MagicMicro:
		pr.order = binary.LittleEndian
	case magicLE == MagicNano:
		pr.order, pr.nano = binary.LittleEndian, true
	case magicBE == MagicMicro:
		pr.order = binary.BigEndian
	case magicBE == MagicNano:
		pr.order, pr.nano = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	pr.snapLen = pr.order.Uint32(hdr[16:20])
	pr.link = pr.order.Uint32(hdr[20:24])
	return pr, nil
}

// LinkType reports the capture's link layer (LinkTypeEthernet for files
// we write).
func (r *Reader) LinkType() uint32 { return r.link }

// Nano reports whether timestamps carry nanosecond resolution.
func (r *Reader) Nano() bool { return r.nano }

// ReadPacket reads the next packet into p, or returns io.EOF at end of
// file. p.Data points into a buffer the Reader reuses: it is valid until
// the next ReadPacket call, so a caller that keeps bytes past that copies
// them.
func (r *Reader) ReadPacket(p *Packet) error { return r.read(p, &r.buf) }

// Next returns the next packet in storage of its own, or io.EOF at end
// of file.
func (r *Reader) Next() (*Packet, error) {
	p := new(Packet)
	var fresh []byte
	if err := r.read(p, &fresh); err != nil {
		return nil, err
	}
	return p, nil
}

// read fills p with the next packet, its body read into *buf's storage,
// which it replaces with a larger slice when the body does not fit.
func (r *Reader) read(p *Packet, buf *[]byte) error {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return io.EOF // truncated trailer: treat as clean end
		}
		return err
	}
	sec := r.order.Uint32(r.hdr[0:4])
	sub := r.order.Uint32(r.hdr[4:8])
	capLen := r.order.Uint32(r.hdr[8:12])
	origLen := r.order.Uint32(r.hdr[12:16])
	if capLen > 10*DefaultSnapLen {
		return fmt.Errorf("pcap: implausible capture length %d", capLen)
	}
	if uint32(cap(*buf)) < capLen {
		*buf = make([]byte, capLen)
	}
	p.Data = (*buf)[:capLen]
	if _, err := io.ReadFull(r.r, p.Data); err != nil {
		return fmt.Errorf("pcap: reading packet body: %w", err)
	}
	t := float64(sec)
	if r.nano {
		t += float64(sub) / 1e9
	} else {
		t += float64(sub) / 1e6
	}
	p.Time, p.OrigLen = t, int(origLen)
	return nil
}
