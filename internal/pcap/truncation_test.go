package pcap

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cutgolden"
)

// capture is what a Reader makes of one capture file: the packets read
// before the first error, and that error (EOF for a clean end).
type capture struct {
	Packets []Packet
	End     string
}

// TestReadTruncationGolden pins what a Reader returns for each prefix
// of a capture, a file header and two records, and for the capture with
// trailing bytes: the packets read and how reading ended, or the file
// header's error. ReadPacket, which hands packets out in place, and
// Next, which returns storage of each packet's own, must read the same. Delete
// testdata/truncation.golden and rerun to regenerate it.
func TestReadTruncationGolden(t *testing.T) {
	var b strings.Builder
	for _, nano := range []bool{false, true} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, nano)
		if err != nil {
			t.Fatal(err)
		}
		w.WritePacket(1.5, []byte{1, 2, 3, 4, 5, 6})
		w.WritePacket(2.25, []byte{7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		name := "micro"
		if nano {
			name = "nano"
		}
		cutgolden.Render(&b, name, buf.Bytes(), func(file []byte) (any, error) {
			byNext, err := readAll(file, func(r *Reader) (Packet, error) {
				p, err := r.Next()
				if err != nil {
					return Packet{}, err
				}
				return *p, nil
			})
			if err != nil {
				return nil, err
			}
			var p Packet
			byRead, _ := readAll(file, func(r *Reader) (Packet, error) {
				err := r.ReadPacket(&p)
				q := p
				q.Data = append([]byte(nil), p.Data...) // the next read overwrites p.Data
				return q, err
			})
			if !reflect.DeepEqual(byRead, byNext) {
				t.Errorf("%s cut to %d bytes: ReadPacket read %+v, Next %+v", name, len(file), byRead, byNext)
			}
			return byNext, nil
		})
	}
	cutgolden.Check(t, filepath.Join("testdata", "truncation.golden"), b.String())
}

// readAll reads file through next until it fails. Only the file
// header's error is returned as an error.
func readAll(file []byte, next func(*Reader) (Packet, error)) (*capture, error) {
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		return nil, err
	}
	c := &capture{}
	for {
		p, err := next(r)
		if err != nil {
			c.End = fmt.Sprint(err)
			return c, nil
		}
		c.Packets = append(c.Packets, p)
	}
}
