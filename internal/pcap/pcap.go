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

	lent int    // bytes of r ReadPacket handed out, discarded on the next read
	buf  []byte // storage ReadPacket reuses for a packet larger than r's buffer
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
// file. p.Data is valid until the next ReadPacket or Next call, so a
// caller that keeps bytes past that copies them. A packet that fits the
// Reader's 64 KiB read buffer is handed out where it lies in that
// buffer, without a copy; only a larger one is copied, into storage the
// Reader reuses.
func (r *Reader) ReadPacket(p *Packet) error {
	r.r.Discard(r.lent) // buffered bytes: this cannot fail
	r.lent = 0
	hdr, err := r.r.Peek(packetHeaderLen)
	if err != nil {
		if err == io.EOF {
			return io.EOF // a truncated trailer is a clean end
		}
		return err
	}
	sec := r.order.Uint32(hdr[0:4])
	sub := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	t := float64(sec)
	if r.nano {
		t += float64(sub) / 1e9
	} else {
		t += float64(sub) / 1e6
	}
	if capLen > 10*DefaultSnapLen {
		r.r.Discard(packetHeaderLen)
		return fmt.Errorf("pcap: implausible capture length %d", capLen)
	}
	n := packetHeaderLen + int(capLen)
	if n > r.r.Size() {
		r.r.Discard(packetHeaderLen)
		if uint32(cap(r.buf)) < capLen {
			r.buf = make([]byte, capLen)
		}
		if _, err := io.ReadFull(r.r, r.buf[:capLen]); err != nil {
			return fmt.Errorf("pcap: reading packet body: %w", err)
		}
		p.Data = r.buf[:capLen]
	} else {
		b, err := r.r.Peek(n)
		if err != nil {
			// Consume what there is, as reading the body would have.
			r.r.Discard(len(b))
			if err == io.EOF && len(b) > packetHeaderLen {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("pcap: reading packet body: %w", err)
		}
		p.Data = b[packetHeaderLen:n:n]
		r.lent = n
	}
	p.Time, p.OrigLen = t, int(origLen)
	return nil
}

// Next returns the next packet in storage of its own, or io.EOF at end
// of file.
func (r *Reader) Next() (*Packet, error) {
	p := new(Packet)
	if err := r.ReadPacket(p); err != nil {
		return nil, err
	}
	p.Data = append([]byte(nil), p.Data...)
	return p, nil
}
