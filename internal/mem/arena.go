// Package mem provides the simulated physical memory underneath every hash
// table in this repository.
//
// All table bytes live inside an Arena, a contiguous span of the simulated
// address space. The cache simulator (internal/cache) keys on addresses, so
// placing every structure in an arena with a stable base address lets the
// execution engine observe realistic cache-line behaviour (line splits,
// conflict misses between tables, hot-set residency under skew) without any
// unsafe pointer tricks.
//
// Arenas are handed out by an AddressSpace, which guarantees that distinct
// allocations never overlap and that every arena starts on a cache-line
// boundary.
package mem

import (
	"encoding/binary"
	"fmt"
)

// LineSize is the cache-line size, in bytes, assumed throughout the
// simulation. All modeled CPUs (Skylake, Cascade Lake) use 64-byte lines.
const LineSize = 64

// Arena is a contiguous region of simulated memory with a stable base
// address. Reads and writes are bounds-checked and little-endian, matching
// the x86 machines the paper characterizes.
type Arena struct {
	base uint64
	data []byte
}

// NewArena creates a standalone arena of the given size at the given base
// address. Most callers should allocate arenas through an AddressSpace
// instead, which prevents overlapping placements.
func NewArena(base uint64, size int) *Arena {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative arena size %d", size))
	}
	return &Arena{base: base, data: make([]byte, size)}
}

// Base returns the simulated address of the first byte of the arena.
func (a *Arena) Base() uint64 { return a.base }

// Size returns the arena length in bytes.
func (a *Arena) Size() int { return len(a.data) }

// Addr translates an offset within the arena to a simulated address.
func (a *Arena) Addr(off int) uint64 {
	a.check(off, 1)
	return a.base + uint64(off)
}

// Bytes returns the backing bytes for [off, off+n). The returned slice
// aliases arena memory; mutations are visible to later reads.
func (a *Arena) Bytes(off, n int) []byte {
	a.check(off, n)
	return a.data[off : off+n]
}

// Read16 loads a little-endian 16-bit value at off.
func (a *Arena) Read16(off int) uint16 {
	a.check(off, 2)
	return binary.LittleEndian.Uint16(a.data[off:])
}

// Read32 loads a little-endian 32-bit value at off.
func (a *Arena) Read32(off int) uint32 {
	a.check(off, 4)
	return binary.LittleEndian.Uint32(a.data[off:])
}

// Read64 loads a little-endian 64-bit value at off.
func (a *Arena) Read64(off int) uint64 {
	a.check(off, 8)
	return binary.LittleEndian.Uint64(a.data[off:])
}

// Write16 stores a little-endian 16-bit value at off.
func (a *Arena) Write16(off int, v uint16) {
	a.check(off, 2)
	binary.LittleEndian.PutUint16(a.data[off:], v)
}

// Write32 stores a little-endian 32-bit value at off.
func (a *Arena) Write32(off int, v uint32) {
	a.check(off, 4)
	binary.LittleEndian.PutUint32(a.data[off:], v)
}

// Write64 stores a little-endian 64-bit value at off.
func (a *Arena) Write64(off int, v uint64) {
	a.check(off, 8)
	binary.LittleEndian.PutUint64(a.data[off:], v)
}

// ReadUint loads an unsigned little-endian value of the given width in bits
// (16, 32 or 64) at off. It is the generic accessor used by hash-table
// layouts whose key/payload widths are configuration parameters.
func (a *Arena) ReadUint(off, bits int) uint64 {
	switch bits {
	case 16:
		return uint64(a.Read16(off))
	case 32:
		return uint64(a.Read32(off))
	case 64:
		return a.Read64(off)
	default:
		panic(fmt.Sprintf("mem: unsupported field width %d bits", bits))
	}
}

// WriteUint stores an unsigned little-endian value of the given width in
// bits (16, 32 or 64) at off. Values wider than the field are truncated,
// matching a store of the low lane bits.
func (a *Arena) WriteUint(off, bits int, v uint64) {
	switch bits {
	case 16:
		a.Write16(off, uint16(v))
	case 32:
		a.Write32(off, uint32(v))
	case 64:
		a.Write64(off, v)
	default:
		panic(fmt.Sprintf("mem: unsupported field width %d bits", bits))
	}
}

// Zero clears the whole arena.
func (a *Arena) Zero() { clear(a.data) }

func (a *Arena) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(a.data) {
		panic(fmt.Sprintf("mem: access [%d,%d) outside arena of %d bytes", off, off+n, len(a.data)))
	}
}

// AddressSpace hands out non-overlapping, line-aligned arenas. A fresh
// address space starts allocating at a non-zero base so that address 0 never
// aliases a valid slot (several layouts use key==0 as the empty sentinel).
type AddressSpace struct {
	next uint64
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: 1 << 20} // leave the low 1 MiB unmapped
}

// Alloc returns a new arena of the given size, aligned to a cache line.
func (s *AddressSpace) Alloc(size int) *Arena {
	if size < 0 {
		panic(fmt.Sprintf("mem: negative allocation %d", size))
	}
	base := s.next
	a := NewArena(base, size)
	s.next += uint64(size)
	// Round up to the next line so consecutive arenas never share a line.
	if rem := s.next % LineSize; rem != 0 {
		s.next += LineSize - rem
	}
	return a
}

// LineOf returns the line-aligned address containing addr.
func LineOf(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// LinesTouched reports how many distinct cache lines the access
// [addr, addr+size) spans.
func LinesTouched(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first := LineOf(addr)
	last := LineOf(addr + uint64(size) - 1)
	return int((last-first)/LineSize) + 1
}
