// Package hashfn provides the hash functions used by the cuckoo hash
// tables.
//
// Cuckoo hashing with N ways needs N independent hash functions mapping a
// key to a bucket index. We use the classic multiply-shift family
//
//	h_a(k) = ((k * a) mod 2^L) >> (L - log2(buckets))
//
// with L equal to the key's lane width, because it is the family the
// vectorized lookup templates in the paper (and in Polychroniou et al.) use:
// it lowers to one packed multiply, one packed shift and one packed AND, so
// the identical function can be evaluated scalar (Insert, scalar lookup) and
// per-lane in a vector register (vec_calc_hash in Algorithm 2).
//
// The package also provides Mix64to32, the finalizer the key-value store
// uses to derive 32-bit HT keys from variable-length byte keys.
package hashfn

import (
	"fmt"
	"math/rand"
)

// Family is a set of N multiply-shift hash functions over laneBits-wide
// keys, each mapping to [0, 1<<bucketBits).
type Family struct {
	laneBits   int
	bucketBits int
	mults      []uint64
}

// NewFamily builds a family of n functions for laneBits-wide keys (16, 32
// or 64) and 2^bucketBits buckets, seeded deterministically.
func NewFamily(n, laneBits, bucketBits int, seed int64) *Family {
	switch laneBits {
	case 16, 32, 64:
	default:
		panic(fmt.Sprintf("hashfn: unsupported key width %d bits", laneBits))
	}
	if bucketBits < 0 || bucketBits > laneBits {
		panic(fmt.Sprintf("hashfn: %d bucket bits do not fit a %d-bit hash", bucketBits, laneBits))
	}
	rng := rand.New(rand.NewSource(seed))
	mults := make([]uint64, n)
	for i := range mults {
		// Odd multipliers with high-bit entropy give good multiply-shift
		// behaviour. Regenerate until distinct from earlier picks.
		for {
			m := (rng.Uint64() | 1) & laneMask(laneBits)
			// Force the top half to be non-trivial for narrow lanes.
			m |= 1 << (laneBits - 2)
			distinct := true
			for j := 0; j < i; j++ {
				if mults[j] == m {
					distinct = false
					break
				}
			}
			if distinct {
				mults[i] = m
				break
			}
		}
	}
	return &Family{laneBits: laneBits, bucketBits: bucketBits, mults: mults}
}

// N returns the number of functions in the family.
func (f *Family) N() int { return len(f.mults) }

// LaneBits returns the key width in bits.
func (f *Family) LaneBits() int { return f.laneBits }

// BucketBits returns log2 of the bucket count.
func (f *Family) BucketBits() int { return f.bucketBits }

// Buckets returns the bucket count, 1<<bucketBits.
func (f *Family) Buckets() int { return 1 << f.bucketBits }

// Mult returns the multiplier of function i, for vectorized evaluation.
func (f *Family) Mult(i int) uint64 { return f.mults[i] }

// Shift returns the right-shift amount, for vectorized evaluation.
func (f *Family) Shift() uint { return uint(f.laneBits - f.bucketBits) }

// Hash evaluates function i on key, returning a bucket index.
func (f *Family) Hash(i int, key uint64) uint64 {
	m := (key * f.mults[i]) & laneMask(f.laneBits)
	return m >> f.Shift()
}

// AllHashes evaluates every function of the family on key, appending the
// bucket indices to dst[:0] in function order, and returns the slice.
func (f *Family) AllHashes(key uint64, dst []uint64) []uint64 {
	dst = dst[:0]
	for i := range f.mults {
		dst = append(dst, f.Hash(i, key))
	}
	return dst
}

func laneMask(laneBits int) uint64 {
	if laneBits == 64 {
		return ^uint64(0)
	}
	return (1 << laneBits) - 1
}

// Mix64to32 is a 64→32-bit mixing finalizer (a truncated variant of the
// splitmix64 finalizer). The key-value store uses it to derive the 32-bit
// HT key from a full key's bytes.
func Mix64to32(x uint64) uint32 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x)
}

// HashBytes hashes an arbitrary byte string to 64 bits with an FNV-1a core
// and a splitmix finalizer; it is the full-key hash of the KVS front end.
func HashBytes(b []byte) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}
