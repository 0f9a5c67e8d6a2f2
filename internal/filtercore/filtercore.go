// Package filtercore defines the pluggable filter-backend abstraction
// behind the serving stack. Every layer above it — internal/shard,
// internal/snapshot restore, internal/server, cmd/habfserved,
// cmd/habfbench — is generic over a Backend, so any registered filter
// family (HABF, standard Bloom, Xor, ...) is servable, benchmarkable and
// snapshot-able through the same code paths.
//
// A Backend is one shard's filter: built once from the shard's positive
// (and, for cost-aware families, negative) keys within a bit budget,
// queried lock-free by readers — one key through Contains, or a batch
// through ContainsBatchInto together with each key's hashes.Base value,
// which the shard layer has already computed for routing — and either
// mutable (Add inserts post-construction) or static (Add returns
// ErrStaticBackend and the shard layer buffers the key as pending until
// the next rebuild absorbs it). Backends marshal to a self-describing
// wire format and unmarshal zero-copy, aliasing aligned arrays of the
// snapshot buffer.
//
// Backends self-register in an init-time Registry keyed both by a
// human-facing name (command-line flags, /v1/stats) and a stable wire
// Kind byte (stamped into the snapshot container header, so a restore
// dispatches to the right decoder or fails loudly — never misdecodes
// frames built by another backend).
package filtercore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/habf"
)

// ErrStaticBackend is returned by Add on backends whose structure cannot
// absorb post-construction inserts (e.g. the peeling-built Xor filter).
// The shard layer reacts by buffering the key as pending — still served
// with zero false negatives — until a rebuild absorbs it.
var ErrStaticBackend = errors.New("filtercore: static backend does not support Add")

// Kind is the stable wire discriminator of a backend family, stamped
// into the snapshot container header (one byte). Values are append-only:
// stored containers carry the byte, so a kind keeps naming its family.
type Kind uint8

const (
	// KindHABF is the Hash Adaptive Bloom Filter (the default backend).
	KindHABF Kind = 0
	// KindBloom is the standard Bloom filter (mutable baseline).
	KindBloom Kind = 1
	// KindXor is the Xor filter (static baseline).
	KindXor Kind = 2
	// KindWBF is the Weighted Bloom filter (mutable, cost-aware baseline).
	KindWBF Kind = 3
	// KindPHBF is the partitioned-hashing Bloom filter (static baseline).
	KindPHBF Kind = 4
)

// Backend is one shard's filter, the unit the serving stack is generic
// over. Implementations are safe for concurrent readers; Add requires
// external synchronization against readers (the shard layer provides
// it).
type Backend interface {
	// Contains reports whether key may be a member. False positives are
	// possible; false negatives are not.
	Contains(key []byte) bool
	// PreparedQuerier is the batch probe, the only batch form.
	PreparedQuerier
	// Add inserts a key post-construction. Static backends return
	// ErrStaticBackend and remain unchanged; the caller owns buffering.
	Add(key []byte) error
	// Name identifies the filter variant ("HABF", "BF(City64)", "Xor").
	Name() string
	// SizeBits is the memory footprint of the query-time structure.
	SizeBits() uint64
	// MarshalBinary encodes the query-time state in the family's
	// self-describing wire format.
	MarshalBinary() ([]byte, error)
	// WireAlignOffset returns the offset within a MarshalBinary payload
	// that a zero-copy container must place 8-byte aligned.
	WireAlignOffset() int
	// Borrowed reports whether the backend still serves from the buffer
	// it was decoded from (aligned arrays, no mutation yet).
	Borrowed() bool
}

// PreparedQuerier is the batch probe of the hash-once read pipeline. The
// shard layer computes one base hash per key per batch (hashes.Base),
// routes with its top bits, and hands the full values to the backend;
// backends whose probe positions derive from the base hash (Bloom, Xor,
// PHBF, WBF) then skip re-reading the key bytes, while HABF and the
// learned families, which hash keys their own way, probe key by key.
//
// Contract: dst, keys and hashes share indices and have length ≥
// len(keys), and hashes[i] == hashes.Base(keys[i]) for every i — the
// caller owns that invariant. The backend writes Contains(keys[i]) into
// dst[i] for every i and touches nothing past len(keys). None of the
// three slices is retained after the call.
type PreparedQuerier interface {
	ContainsBatchInto(dst []bool, keys [][]byte, hashes []uint64)
}

// BuildConfig carries what a shard build hands a backend constructor.
type BuildConfig struct {
	// TotalBits is the shard's space budget.
	TotalBits uint64
	// Params is the HABF construction template (seed, k, cell size,
	// ablation switches). Non-HABF backends use the fields that apply to
	// them — typically none or just the seed — and ignore the rest.
	Params habf.Params
	// Tuning is the validated knob set for the backend family (parsed
	// against the factory's TuningSchema). The zero Tuning means "all
	// defaults"; builders must treat it like DefaultTuning.
	Tuning Tuning
}

// Factory describes one registered backend family.
type Factory struct {
	// Name is the registry key used by flags and APIs ("habf", "bloom",
	// "xor").
	Name string
	// Kind is the family's wire discriminator.
	Kind Kind
	// Static marks families whose Add returns ErrStaticBackend.
	Static bool
	// InnerName renders the per-shard display name for a construction
	// template, without building anything ("HABF" vs "f-HABF").
	InnerName func(p habf.Params) string
	// TuningSchema declares the family's tuning knobs (names, types,
	// bounds, defaults). Every factory must declare one, even if empty,
	// so ParseTuning/DefaultTuning work uniformly across backends.
	TuningSchema *Schema
	// Build constructs a backend over the shard's keys. Negatives carry
	// misidentification costs; families that cannot exploit them ignore
	// them.
	Build func(positives [][]byte, negatives []habf.WeightedKey, cfg BuildConfig) (Backend, error)
	// Unmarshal decodes a MarshalBinary payload zero-copy where
	// alignment allows; the caller keeps data alive and unmodified.
	Unmarshal func(data []byte) (Backend, error)
}

var (
	regMu     sync.RWMutex
	byName    = map[string]*Factory{}
	byKind    = map[Kind]*Factory{}
	nameOrder []string
)

// Register adds a backend family to the registry. It panics on a
// duplicate name or kind — registration happens in package init, where
// a collision is a programming error.
func Register(f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if f.Name == "" || f.Build == nil || f.Unmarshal == nil || f.InnerName == nil || f.TuningSchema == nil {
		panic(fmt.Sprintf("filtercore: incomplete factory %+v", f))
	}
	if _, dup := byName[f.Name]; dup {
		panic(fmt.Sprintf("filtercore: backend %q already registered", f.Name))
	}
	if _, dup := byKind[f.Kind]; dup {
		panic(fmt.Sprintf("filtercore: backend kind %d already registered", f.Kind))
	}
	fc := f
	byName[f.Name] = &fc
	byKind[f.Kind] = &fc
	nameOrder = append(nameOrder, f.Name)
	sort.Strings(nameOrder)
}

// DefaultBackend is the name resolved when no backend is requested.
const DefaultBackend = "habf"

// ByName resolves a backend by registry name; the empty string resolves
// the default. Unknown names return an error listing what is available.
func ByName(name string) (*Factory, error) {
	if name == "" {
		name = DefaultBackend
	}
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("filtercore: unknown backend %q (registered: %v)", name, nameOrder)
	}
	return f, nil
}

// ByKind resolves a backend by wire discriminator, for snapshot restore
// dispatch. Unknown kinds fail loudly so a container written by a newer
// backend is rejected instead of misdecoded.
func ByKind(k Kind) (*Factory, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := byKind[k]
	if !ok {
		return nil, fmt.Errorf("filtercore: unknown backend kind %d (registered: %v)", k, nameOrder)
	}
	return f, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), nameOrder...)
}
