// Package xshard implements the receipts method for cross-shard transfers
// (DESIGN.md "Cross-shard receipts"): a transfer between accounts homed on
// two shards burns on the source shard, is proven by a Merkle receipt
// against a finality-buried source block header, and mints on the
// destination shard. The package provides the three protocol objects the
// rest of the system threads together:
//
//   - HeaderBook: the destination shard's verifier for source-shard
//     headers. AcceptProof judges a mint's carried header chain with the
//     same deterministic checks on every node (PoW seal + membership hook +
//     finality depth), booking verified headers as a cache; Add feeds the
//     cache from gossip. The cache persists through the durable store so a
//     restarted miner skips re-verification during recovery replay.
//   - CheckMint: the stateless half of mint verification — structural
//     shape, burn signature, lane consistency, Merkle inclusion, and the
//     carried header chain's seals and linkage — used both at mempool
//     admission and at block apply.
//   - Relay: watches a source chain, waits FinalityDepth blocks, and
//     forwards each finalized burn as a mint candidate — bundled with the
//     source header and its finality evidence — to destination shards.
//
// The consensus-critical pieces (HeaderBook, CheckMint) are deterministic:
// no wall clock, no map iteration, no ambient randomness.
package xshard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"contractshard/internal/pow"
	"contractshard/internal/store"
	"contractshard/internal/types"
)

// Store keys for persisted headers: a bounded circular log "xhdr/<slot>"
// (slot = sequence mod the book's limit) plus the running total under
// "xhdr/count". Fixed keys — not per-hash ones — let Attach reload the book
// without ranging over store internals, keep enumeration deterministic, and
// bound the store footprint: once the log wraps, the oldest header's slot is
// overwritten in place.
const (
	hdrCountKey  = "xhdr/count"
	hdrKeyPrefix = "xhdr/"
)

// DefaultMaxHeaders bounds the header book when no explicit limit is set:
// at most this many source headers are cached in memory and in the store.
// Eviction is safe for correctness — the book is a verification cache, not
// the source of truth; a mint whose header was evicted is simply
// re-verified from its own carried evidence.
const DefaultMaxHeaders = 1024

// Errors returned by HeaderBook.
var (
	// ErrBadHeaderSeal means a carried header's PoW seal does not meet its
	// own difficulty target.
	ErrBadHeaderSeal = errors.New("xshard: header seal invalid")
	// ErrHeaderRejected wraps a failure of the book's extra verification
	// hook (typically shard-membership verification).
	ErrHeaderRejected = errors.New("xshard: header rejected")
	// ErrNotFinalized means a mint carries fewer descendant headers than
	// the destination shard's finality depth requires.
	ErrNotFinalized = errors.New("xshard: insufficient finality evidence")
)

// HeaderBook verifies the source-shard header chains that authorize mints,
// and caches the verdicts. Every header is verified on entry: the PoW seal
// must meet the header's difficulty, and an optional hook (the node installs
// sharding membership verification) must pass. Verification is a pure
// function of the header plus shared consensus inputs (epoch randomness and
// fractions), so every honest validator reaches the same verdict on the
// same mint — block validity never depends on which gossip messages a node
// happened to receive.
//
// The book is bounded: at most its limit of headers stay cached (memory and
// store), oldest evicted first. Accepted headers persist to an attached
// store so that crash-recovery replay — which re-executes block bodies,
// including mints — skips re-verifying headers the miner had already
// checked before the crash.
//
// HeaderBook is safe for concurrent use: concurrent AddBlock calls
// re-execute bodies outside the chain lock and call AcceptProof while the
// node's gossip handler may be adding a freshly announced header.
type HeaderBook struct {
	mu       sync.RWMutex
	verify   func(*types.Header) error // optional extra check, may be nil
	finality uint64                    // descendants a mint's header needs
	have     map[types.Hash]bool       // membership only; never ranged
	ring     []*types.Header           // circular; slot i holds the header of seq≡i (mod limit)
	seq      uint64                    // total headers ever booked
	db       store.Store               // nil until Attach
}

// NewHeaderBook returns an empty book that demands `finality` descendant
// headers of evidence per mint. verify, if non-nil, runs on every candidate
// header after the PoW check; the node installs shard-membership
// verification here. The bound defaults to DefaultMaxHeaders; SetLimit
// overrides it before first use.
func NewHeaderBook(finality uint64, verify func(*types.Header) error) *HeaderBook {
	return &HeaderBook{
		verify:   verify,
		finality: finality,
		have:     make(map[types.Hash]bool),
		ring:     make([]*types.Header, DefaultMaxHeaders),
	}
}

// SetLimit re-bounds the book to keep at most n headers (n >= 1). It must be
// called before any header is added or a store attached — the persisted slot
// layout is keyed by the limit, so a book must be reopened with the same
// limit it wrote with.
func (b *HeaderBook) SetLimit(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 1 || b.seq != 0 || b.db != nil {
		return
	}
	b.ring = make([]*types.Header, n)
}

// Finality returns the number of descendant headers a mint must carry.
func (b *HeaderBook) Finality() uint64 { return b.finality }

// Attach loads previously persisted headers from s and makes future Add
// calls persist there. Persisted headers are re-verified on load — a store
// that fails verification is corrupt and Attach reports it rather than
// poisoning the book — and the load is bounded by the book's limit, so
// restart cost does not grow with chain age. Headers added before Attach
// are persisted now, so the store and the book never silently diverge.
func (b *HeaderBook) Attach(s store.Store) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Stash headers added before the store existed (oldest surviving one
	// first), then rebuild from the persisted log and re-book the stash on
	// top of it.
	var pending []*types.Header
	memStart := uint64(0)
	if limit := uint64(len(b.ring)); b.seq > limit {
		memStart = b.seq - limit
	}
	for i := memStart; i < b.seq; i++ {
		if h := b.ring[i%uint64(len(b.ring))]; h != nil {
			pending = append(pending, h)
		}
	}
	b.have = make(map[types.Hash]bool)
	b.ring = make([]*types.Header, len(b.ring))
	b.seq = 0
	raw, ok := s.Get(hdrCountKey)
	if ok {
		if len(raw) != 8 {
			return fmt.Errorf("xshard: corrupt header count (%d bytes)", len(raw))
		}
		n := binary.BigEndian.Uint64(raw)
		start := uint64(0)
		if limit := uint64(len(b.ring)); n > limit {
			start = n - limit
		}
		for seq := start; seq < n; seq++ {
			hraw, ok := s.Get(hdrKey(seq % uint64(len(b.ring))))
			if !ok {
				return fmt.Errorf("xshard: missing persisted header %d of %d", seq, n)
			}
			h, err := types.DecodeHeader(types.NewDecoder(hraw))
			if err != nil {
				return fmt.Errorf("xshard: persisted header %d: %w", seq, err)
			}
			if err := b.check(h); err != nil {
				return fmt.Errorf("xshard: persisted header %d: %w", seq, err)
			}
			b.ring[seq%uint64(len(b.ring))] = h
			b.have[h.Hash()] = true
		}
		b.seq = n
	}
	b.db = s
	for _, h := range pending {
		if err := b.addLocked(h); err != nil {
			return fmt.Errorf("xshard: persisting pre-attach header: %w", err)
		}
	}
	return nil
}

// check runs the entry verification without touching book state.
func (b *HeaderBook) check(h *types.Header) error {
	if !pow.Verify(h) {
		return ErrBadHeaderSeal
	}
	if b.verify != nil {
		if err := b.verify(h); err != nil {
			return fmt.Errorf("%w: %v", ErrHeaderRejected, err)
		}
	}
	return nil
}

// addLocked verifies and records a header under the write lock, evicting the
// oldest cached header when the ring is full. Re-adding a cached header is a
// free no-op — verification is pure per header, so the cached verdict is the
// verdict.
func (b *HeaderBook) addLocked(h *types.Header) error {
	hash := h.Hash()
	if b.have[hash] {
		return nil
	}
	if err := b.check(h); err != nil {
		return err
	}
	slot := b.seq % uint64(len(b.ring))
	if b.db != nil {
		e := types.NewEncoder()
		h.Encode(e)
		if err := b.db.Put(hdrKey(slot), e.Bytes()); err != nil {
			return fmt.Errorf("xshard: persist header: %w", err)
		}
		var cnt [8]byte
		binary.BigEndian.PutUint64(cnt[:], b.seq+1)
		if err := b.db.Put(hdrCountKey, cnt[:]); err != nil {
			return fmt.Errorf("xshard: persist header count: %w", err)
		}
	}
	if old := b.ring[slot]; old != nil {
		delete(b.have, old.Hash())
	}
	b.ring[slot] = h
	b.have[hash] = true
	b.seq++
	return nil
}

// Add verifies and records a gossiped header. Adding a header the book
// already has is a no-op: relays re-announce on retry and gossip duplicates
// freely. Gossip only warms the cache — mint validity never requires a
// header to have arrived this way.
func (b *HeaderBook) Add(h *types.Header) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addLocked(h)
}

// AcceptProof is the stateful half of mint verification, and it is
// deterministic: the proof must carry at least the book's finality depth of
// descendant headers, and the source header plus every descendant must pass
// the same verification gossiped headers get (PoW seal + membership hook).
// Verified headers are booked — and persisted — as a side effect, exactly
// as if they had arrived by gossip, so a validator that missed the
// TopicXHeaders announcement still reaches the same verdict on the block as
// the miner that produced it. CheckMint has already pinned linkage and
// seals statelessly; the hash cache makes the re-check here cheap.
func (b *HeaderBook) AcceptProof(mp *types.MintProof) error {
	if uint64(len(mp.Descendants)) < b.finality {
		return fmt.Errorf("%w: %d descendant headers, finality depth %d",
			ErrNotFinalized, len(mp.Descendants), b.finality)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.addLocked(mp.Header); err != nil {
		return err
	}
	for _, dh := range mp.Descendants {
		if err := b.addLocked(dh); err != nil {
			return err
		}
	}
	return nil
}

// Has reports whether the header with the given hash is cached.
func (b *HeaderBook) Has(h types.Hash) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.have[h]
}

// Len returns the number of cached headers.
func (b *HeaderBook) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.have)
}

func hdrKey(slot uint64) string {
	return fmt.Sprintf("%s%d", hdrKeyPrefix, slot)
}
