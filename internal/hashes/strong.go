package hashes

import (
	"encoding/binary"
	"hash/crc32"
)

// xxHash64 prime constants from the public-domain specification.
const (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261
)

func rotl64(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

// XXH64 hashes data with the xxHash64 algorithm and seed 0.
func XXH64(data []byte) uint64 { return XXH64Seed(data, 0) }

// XXH64Seed hashes data with the xxHash64 algorithm and the given seed.
func XXH64Seed(data []byte, seed uint64) uint64 {
	n := len(data)
	var h uint64
	p := data
	if n >= 32 {
		v1 := seed + xxPrime1 + xxPrime2
		v2 := seed + xxPrime2
		v3 := seed
		v4 := seed - xxPrime1
		for len(p) >= 32 {
			v1 = rotl64(v1+binary.LittleEndian.Uint64(p)*xxPrime2, 31) * xxPrime1
			v2 = rotl64(v2+binary.LittleEndian.Uint64(p[8:])*xxPrime2, 31) * xxPrime1
			v3 = rotl64(v3+binary.LittleEndian.Uint64(p[16:])*xxPrime2, 31) * xxPrime1
			v4 = rotl64(v4+binary.LittleEndian.Uint64(p[24:])*xxPrime2, 31) * xxPrime1
			p = p[32:]
		}
		h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h ^= rotl64(v*xxPrime2, 31) * xxPrime1
			h = h*xxPrime1 + xxPrime4
		}
	} else {
		h = seed + xxPrime5
	}
	h += uint64(n)
	for len(p) >= 8 {
		h ^= rotl64(binary.LittleEndian.Uint64(p)*xxPrime2, 31) * xxPrime1
		h = rotl64(h, 27)*xxPrime1 + xxPrime4
		p = p[8:]
	}
	if len(p) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(p)) * xxPrime1
		h = rotl64(h, 23)*xxPrime2 + xxPrime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * xxPrime5
		h = rotl64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// City-style constants (from the published CityHash64).
const (
	cityK0 uint64 = 0xc3a5c85c97cb3127
	cityK1 uint64 = 0xb492b66fbe98f273
	cityK2 uint64 = 0x9ae16a3b2f90404f
)

func cityShiftMix(v uint64) uint64 { return v ^ v>>47 }

func cityLen16(u, v uint64) uint64 {
	const mul = 0x9ddfea08eb382d69
	a := (u ^ v) * mul
	a ^= a >> 47
	b := (v ^ a) * mul
	b ^= b >> 47
	return b * mul
}

// City64 hashes data with a City-style construction: Murmur-style handling
// for short inputs and a two-accumulator 16-byte-chunk loop with the
// CityHash mixing primitives for longer inputs. It preserves the avalanche
// behaviour of CityHash64 without reproducing its full branch structure.
func City64(data []byte) uint64 {
	n := len(data)
	switch {
	case n == 0:
		return cityK2
	case n <= 16:
		var a, b uint64
		if n >= 8 {
			a = binary.LittleEndian.Uint64(data)
			b = binary.LittleEndian.Uint64(data[n-8:])
		} else if n >= 4 {
			a = uint64(binary.LittleEndian.Uint32(data))
			b = uint64(binary.LittleEndian.Uint32(data[n-4:]))
		} else {
			a = uint64(data[0])
			b = uint64(data[n>>1])<<8 | uint64(data[n-1])<<16
		}
		mul := cityK2 + uint64(n)*2
		return cityLen16(a+cityK2, rotl64(b+uint64(n), 30)*mul) * mul
	default:
		x := cityK2 + uint64(n)
		y := cityK1
		p := data
		for len(p) >= 16 {
			a := binary.LittleEndian.Uint64(p)
			b := binary.LittleEndian.Uint64(p[8:])
			x = rotl64(x+a, 37) * cityK0
			y = rotl64(y^b, 42)*cityK1 + a
			x ^= cityShiftMix(y) * cityK0
			p = p[16:]
		}
		if r := len(p); r > 0 {
			// The r-byte tail zero-padded to 16 bytes is the last 16
			// bytes of data shifted down by 16-r bytes: n > 16, so
			// both loads are in bounds and nothing is copied.
			lo := binary.LittleEndian.Uint64(data[n-16:])
			hi := binary.LittleEndian.Uint64(data[n-8:])
			var a, b uint64
			if s := uint(16-r) * 8; s < 64 {
				a, b = lo>>s|hi<<(64-s), hi>>s
			} else {
				a = hi >> (s - 64)
			}
			b += uint64(r)
			x = rotl64(x+a, 33) * cityK1
			y ^= cityShiftMix(b+cityK0) * cityK1
		}
		return cityLen16(cityShiftMix(x)*cityK0, cityShiftMix(y))
	}
}

// Murmur64 hashes data with MurmurHash64A (Appleby), seed 0.
func Murmur64(data []byte) uint64 {
	const (
		m uint64 = 0xc6a4a7935bd1e995
		r        = 47
	)
	h := uint64(len(data)) * m
	p := data
	for len(p) >= 8 {
		k := binary.LittleEndian.Uint64(p)
		k *= m
		k ^= k >> r
		k *= m
		h ^= k
		h *= m
		p = p[8:]
	}
	for i := len(p) - 1; i >= 0; i-- {
		h ^= uint64(p[i]) << (uint(i) * 8)
	}
	if len(p) > 0 {
		h *= m
	}
	h ^= h >> r
	h *= m
	h ^= h >> r
	return h
}

// BOB is Bob Jenkins' 1996 "hash96" (mix of three 32-bit accumulators over
// 12-byte blocks), with the pair (b,c) folded into 64 bits.
func BOB(data []byte) uint64 {
	var a, b, c uint32 = 0x9e3779b9, 0x9e3779b9, 0
	mix := func() {
		a -= b
		a -= c
		a ^= c >> 13
		b -= c
		b -= a
		b ^= a << 8
		c -= a
		c -= b
		c ^= b >> 13
		a -= b
		a -= c
		a ^= c >> 12
		b -= c
		b -= a
		b ^= a << 16
		c -= a
		c -= b
		c ^= b >> 5
		a -= b
		a -= c
		a ^= c >> 3
		b -= c
		b -= a
		b ^= a << 10
		c -= a
		c -= b
		c ^= b >> 15
	}
	p := data
	for len(p) >= 12 {
		a += binary.LittleEndian.Uint32(p)
		b += binary.LittleEndian.Uint32(p[4:])
		c += binary.LittleEndian.Uint32(p[8:])
		mix()
		p = p[12:]
	}
	c += uint32(len(data))
	switch len(p) {
	case 11:
		c += uint32(p[10]) << 24
		fallthrough
	case 10:
		c += uint32(p[9]) << 16
		fallthrough
	case 9:
		c += uint32(p[8]) << 8
		fallthrough
	case 8:
		b += uint32(p[7]) << 24
		fallthrough
	case 7:
		b += uint32(p[6]) << 16
		fallthrough
	case 6:
		b += uint32(p[5]) << 8
		fallthrough
	case 5:
		b += uint32(p[4])
		fallthrough
	case 4:
		a += uint32(p[3]) << 24
		fallthrough
	case 3:
		a += uint32(p[2]) << 16
		fallthrough
	case 2:
		a += uint32(p[1]) << 8
		fallthrough
	case 1:
		a += uint32(p[0])
	}
	mix()
	return uint64(b)<<32 | uint64(c)
}

// OAAT is Bob Jenkins' one-at-a-time hash, widened to a 64-bit accumulator.
func OAAT(data []byte) uint64 {
	var h uint64
	for _, b := range data {
		h = oaatStep(h, b)
	}
	return oaatFinal(h)
}

// OAAT4 returns OAAT of four keys. Keys of equal length advance in
// lockstep, one byte of each per step, so the four serial dependency
// chains overlap; otherwise each key is hashed by OAAT on its own.
func OAAT4(k0, k1, k2, k3 []byte) (h0, h1, h2, h3 uint64) {
	n := len(k0)
	if len(k1) != n || len(k2) != n || len(k3) != n {
		return OAAT(k0), OAAT(k1), OAAT(k2), OAAT(k3)
	}
	k1, k2, k3 = k1[:n], k2[:n], k3[:n]
	for i := range n {
		h0 = oaatStep(h0, k0[i])
		h1 = oaatStep(h1, k1[i])
		h2 = oaatStep(h2, k2[i])
		h3 = oaatStep(h3, k3[i])
	}
	return oaatFinal(h0), oaatFinal(h1), oaatFinal(h2), oaatFinal(h3)
}

func oaatStep(h uint64, b byte) uint64 {
	h += uint64(b)
	h += h << 10
	return h ^ h>>6
}

func oaatFinal(h uint64) uint64 {
	h += h << 3
	h ^= h >> 11
	return h + h<<15
}

// SuperFast is Paul Hsieh's SuperFastHash over 16-bit chunks, widened to a
// 64-bit result via a splitmix finalization of the 32-bit state.
func SuperFast(data []byte) uint64 {
	n := len(data)
	h := uint32(n)
	p := data
	for len(p) >= 4 {
		h += uint32(binary.LittleEndian.Uint16(p))
		tmp := uint32(binary.LittleEndian.Uint16(p[2:]))<<11 ^ h
		h = h<<16 ^ tmp
		h += h >> 11
		p = p[4:]
	}
	switch len(p) {
	case 3:
		h += uint32(binary.LittleEndian.Uint16(p))
		h ^= h << 16
		h ^= uint32(p[2]) << 18
		h += h >> 11
	case 2:
		h += uint32(binary.LittleEndian.Uint16(p))
		h ^= h << 11
		h += h >> 17
	case 1:
		h += uint32(p[0])
		h ^= h << 10
		h += h >> 1
	}
	h ^= h << 3
	h += h >> 5
	h ^= h << 4
	h += h >> 17
	h ^= h << 25
	h += h >> 6
	return Mix64(uint64(h) | uint64(n)<<32)
}

// Hsieh is a byte-granularity variant of Hsieh's mixing schedule; Table II
// lists it separately from SuperFast, so the two use different chunking and
// a different final avalanche to stay mutually independent.
func Hsieh(data []byte) uint64 {
	h := uint32(hsiehInit)
	for _, b := range data {
		h = hsiehStep(h, b)
	}
	return hsiehFinal(h, len(data))
}

// Hsieh4 returns Hsieh of four keys, in lockstep when their lengths are
// equal, like OAAT4.
func Hsieh4(k0, k1, k2, k3 []byte) (h0, h1, h2, h3 uint64) {
	n := len(k0)
	if len(k1) != n || len(k2) != n || len(k3) != n {
		return Hsieh(k0), Hsieh(k1), Hsieh(k2), Hsieh(k3)
	}
	k1, k2, k3 = k1[:n], k2[:n], k3[:n]
	a, b, c, d := uint32(hsiehInit), uint32(hsiehInit), uint32(hsiehInit), uint32(hsiehInit)
	for i := range n {
		a = hsiehStep(a, k0[i])
		b = hsiehStep(b, k1[i])
		c = hsiehStep(c, k2[i])
		d = hsiehStep(d, k3[i])
	}
	return hsiehFinal(a, n), hsiehFinal(b, n), hsiehFinal(c, n), hsiehFinal(d, n)
}

const hsiehInit = 0x811c9dc5

func hsiehStep(h uint32, b byte) uint32 {
	h += uint32(b)
	h ^= h << 11
	return h + h>>17
}

func hsiehFinal(h uint32, n int) uint64 {
	h ^= h << 3
	h += h >> 5
	h ^= h << 2
	h += h >> 15
	h ^= h << 10
	return Mix64(uint64(h)<<32 | uint64(n))
}

// CRC hashes data with the IEEE CRC-32 polynomial (via hash/crc32) in both
// forward and reflected passes to fill 64 bits.
func CRC(data []byte) uint64 {
	fwd := crc32.ChecksumIEEE(data)
	rev := crc32.Update(0xdeadbeef, crc32.MakeTable(crc32.Castagnoli), data)
	return uint64(fwd)<<32 | uint64(rev)
}

// FNV1a is the 64-bit FNV-1a hash.
func FNV1a(data []byte) uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// TWMX accumulates bytes FNV-style and finishes with Thomas Wang's 64-bit
// integer mix.
func TWMX(data []byte) uint64 {
	h := FNV1a(data)
	h = ^h + h<<21
	h ^= h >> 24
	h = h + h<<3 + h<<8
	h ^= h >> 14
	h = h + h<<2 + h<<4
	h ^= h >> 28
	h += h << 31
	return h
}
