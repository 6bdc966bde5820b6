package core

import (
	"encoding/binary"
	"math/bits"
)

// fhMemoBits sizes a decoder's handle memo: 1024 slots, 20 KiB.
const fhMemoBits = 10

// FHMemo is a decoder's private, direct-mapped cache of handle spelling
// → FH in front of the process-wide intern table. A trace names the
// same few thousand handles over and over, so nearly every handle a
// decoder sees is a hit: one string compare, where the table costs
// a shard hash, a read lock whose count every concurrent decoder
// bounces, and a map probe. A miss interns through the table and keeps
// the table's canonical spelling, so filling a slot allocates nothing.
// BinaryReader and the NFS body decoder (nfs.Decoder) each keep one.
// A memo is used from one goroutine at a time; the zero value is
// ready.
type FHMemo struct {
	keys [1 << fhMemoBits]string
	ids  [1 << fhMemoBits]FH
}

// Intern returns the FH of spelling b. A nil memo goes to the table.
func (m *FHMemo) Intern(b []byte) FH {
	if m == nil {
		return InternFHBytes(b)
	}
	slot := fhMemoSlot(b)
	if m.keys[slot] == string(b) {
		return m.ids[slot]
	}
	id := InternFHBytes(b)
	m.keys[slot], m.ids[slot] = id.String(), id
	return id
}

// fhMemoSlot hashes the whole spelling, 8 bytes at a time: handles of
// one server share long prefixes and suffixes, so a hash of any part
// of them would send most handles to a few slots.
func fhMemoSlot(b []byte) uint32 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
		h ^= h >> 32
	}
	var t uint64
	for i, c := range b {
		t |= uint64(c) << (8 * i)
	}
	h = (h ^ t) * m
	h = bits.RotateLeft64(h, 32) * m
	return uint32(h >> (64 - fhMemoBits))
}
