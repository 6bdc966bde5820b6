package tcpasm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// BenchmarkInOrderStream measures the fast path: contiguous segments,
// each one RPC record, read back as the sniffer reads them.
func BenchmarkInOrderStream(b *testing.B) {
	payload := rpc.MarkRecord(make([]byte, 1444))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	a := NewAssembler()
	a.Add(seg(0, nil, wire.FlagSYN))
	seq := uint32(1)
	f := seg(0, payload, 0)
	for i := 0; i < b.N; i++ {
		f.Seq = seq
		if _, s := a.Add(f); s == nil {
			b.Fatal("lost the stream")
		} else if msg, _ := s.Next(); len(msg) != len(payload)-4 {
			b.Fatal("lost data")
		}
		seq += uint32(len(payload))
	}
}

// BenchmarkReorderedStream measures reassembly with 10% adjacent swaps.
func BenchmarkReorderedStream(b *testing.B) {
	payload := make([]byte, 1448)
	rng := rand.New(rand.NewSource(1))
	const window = 64
	seqs := make([]uint32, window)
	for i := range seqs {
		seqs[i] = 1 + uint32(i*len(payload))
	}
	for i := 0; i < len(seqs)-1; i++ {
		if rng.Float64() < 0.10 {
			seqs[i], seqs[i+1] = seqs[i+1], seqs[i]
		}
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	var a *Assembler
	f := seg(0, payload, 0)
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			a = NewAssembler()
			a.Add(seg(0, nil, wire.FlagSYN))
		}
		f.Seq = seqs[i%window]
		a.Add(f)
	}
}

// BenchmarkDrainOverlapping measures n overlapping segments, each
// 1 000 bytes starting 100 after the one before, that arrive in reverse
// order behind a hole, and the segment that fills it: the cost per
// segment must not grow with n.
func BenchmarkDrainOverlapping(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			payload := make([]byte, 1000)
			segs := make([]*wire.Frame, n)
			for i := range segs {
				segs[i] = seg(1+uint32(100*(n-i)), payload, 0)
			}
			fill := seg(1, payload[:100], 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := NewAssembler()
				a.Add(seg(0, nil, wire.FlagSYN))
				for _, f := range segs {
					a.Add(f)
				}
				a.Add(fill)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/segment")
		})
	}
}
