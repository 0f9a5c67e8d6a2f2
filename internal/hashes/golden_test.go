package hashes

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// corpusGolden is one digest per corpus function of its outputs over the
// prefixes of goldenPattern of every length 0–64. A rewrite of a corpus
// function for speed must leave its digest unchanged: HABF filters store
// which corpus functions a key uses, so a changed output silently breaks
// every serialized filter.
var corpusGolden = map[string]uint64{
	"XX64":      0x108079aba2e26ae3,
	"City64":    0x73f6ca7fe3528270,
	"Murmur64":  0xad6787aa3ca1e5aa,
	"BOB":       0x861e5b28f0e66386,
	"OAAT":      0x6ef79de9ffd29155,
	"SuperFast": 0x5d4ba097f2a5ce1c,
	"Hsieh":     0x635ae6e1bf14ad26,
	"CRC32":     0x9e43dc0705ae7ae8,
	"FNV":       0xa998b568162e0a4b,
	"DEK":       0x1a4b0a6ad7b3fb31,
	"PYHash":    0x29d29cebfe512808,
	"BRP":       0x84f832560ee1d919,
	"TWMX":      0x52006d5fec845db6,
	"APHash":    0x53514e70965268e8,
	"NDJB":      0x8b3f36ac89699c8a,
	"DJB":       0xd2a92b96eaf8c814,
	"BKDR":      0x07c86c011771b182,
	"PJW":       0xc92890d1933a58c1,
	"JSHash":    0x28129ac775b353b8,
	"RSHash":    0x3ed02211e9774d9e,
	"SDBM":      0x5d518833989f0877,
	"ELF":       0xaec824d53b15d23b,
}

// goldenPattern is a fixed byte pattern whose prefixes cover every tail
// length of the 4-, 8-, 12- and 16-byte block loops.
func goldenPattern() []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = byte(i*167 + 13)
	}
	return p
}

// corpusDigest folds fn's outputs over every prefix of goldenPattern
// into one FNV-1a digest.
func corpusDigest(fn Func) uint64 {
	p := goldenPattern()
	h := fnv.New64a()
	var out [8]byte
	for n := 0; n <= len(p); n++ {
		binary.LittleEndian.PutUint64(out[:], fn(p[:n]))
		h.Write(out[:])
	}
	return h.Sum64()
}

func TestCorpusGoldenDigest(t *testing.T) {
	for _, n := range Corpus() {
		got := corpusDigest(n.Fn)
		want, ok := corpusGolden[n.Name]
		if !ok {
			t.Errorf("%q: no golden digest (got %#016x)", n.Name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: digest %#016x, want %#016x", n.Name, got, want)
		}
	}
	if len(corpusGolden) != CorpusSize() {
		t.Errorf("%d golden digests for %d corpus functions", len(corpusGolden), CorpusSize())
	}
}
