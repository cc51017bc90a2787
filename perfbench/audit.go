package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"

	"contractshard/internal/types"
)

// audit checks the end state of a run through public APIs only and
// returns every violation found:
//   - the miners of a shard agree on the head hash and state root;
//   - every pool is drained;
//   - value is conserved: the balances of every known address, summed over
//     all shards, equal the genesis allocations plus the block rewards;
//   - every burn on a canonical chain is minted exactly once on a canonical
//     chain, and no mint redeems an unknown burn;
//   - no miner ever rejected a block.
func (r *run) audit() []string {
	var bad []string
	l := r.c.layout
	for s, shard := range l.shards {
		ms := r.c.running(s)
		if len(ms) != minersPerShard {
			bad = append(bad, fmt.Sprintf("%s: %d of %d miners running", shard, len(ms), minersPerShard))
			continue
		}
		head := ms[0].Head()
		for _, m := range ms[1:] {
			if h := m.Head(); h.Hash() != head.Hash() || h.Header.StateRoot != head.Header.StateRoot {
				bad = append(bad, fmt.Sprintf("%s: miners disagree: head %s root %s vs head %s root %s",
					shard, head.Hash(), head.Header.StateRoot, h.Hash(), h.Header.StateRoot))
			}
		}
	}
	for _, m := range r.c.live() {
		if n := m.Pending(); n > 0 {
			bad = append(bad, fmt.Sprintf("%s miner %s: %d transactions still pooled", m.Shard(), m.Address(), n))
		}
	}
	for _, row := range r.c.members {
		for _, mb := range row {
			if n := mb.rejected + mb.m.Stats().BlocksRejected; n > 0 {
				bad = append(bad, fmt.Sprintf("%s: rejected %d blocks", mb.id, n))
			}
		}
	}
	if want, got, ok := r.conservation(); !ok {
		bad = append(bad, "value total overflowed uint64")
	} else if want != got {
		bad = append(bad, fmt.Sprintf("value not conserved: balances sum to %d, genesis plus rewards is %d", got, want))
	}
	bad = append(bad, r.auditReceipts()...)
	return bad
}

// knownAddresses lists every address that can hold value: users,
// contracts, contract beneficiaries and miner coinbases.
func (l *layout) knownAddresses() []types.Address {
	var out []types.Address
	for _, us := range l.users {
		out = append(out, us...)
	}
	out = append(out, l.contracts...)
	out = append(out, l.dests...)
	for _, ks := range l.minerKeys {
		for _, k := range ks {
			out = append(out, k.Address())
		}
	}
	return out
}

// conservation returns the expected and the observed value total.
func (r *run) conservation() (want, got uint64, ok bool) {
	l := r.c.layout
	addrs := l.knownAddresses()
	var carry, c uint64
	add := func(sum *uint64, v uint64) {
		*sum, c = bits.Add64(*sum, v, 0)
		carry |= c
	}
	for s := range l.shards {
		m := r.c.running(s)[0]
		add(&want, uint64(len(l.users[s]))*userFunds)
		hi, lo := bits.Mul64(m.Height(), r.c.reward)
		carry |= hi
		add(&want, lo)
		for _, a := range addrs {
			add(&got, m.BalanceOf(a))
		}
	}
	return want, got, carry == 0
}

// auditReceipts walks every shard's canonical chain through the blocks
// the benchmark saw mined and checks each burn is minted exactly once.
func (r *run) auditReceipts() []string {
	var bad []string
	burns := make(map[types.Hash]bool)
	mints := make(map[types.Hash]int)
	for s, shard := range r.c.layout.shards {
		head := r.c.running(s)[0].Head()
		h, n := head.Hash(), head.Number()
		for n > 0 {
			info, ok := r.blocks[s][h]
			if !ok || info.number != n {
				bad = append(bad, fmt.Sprintf("%s: canonical block %d (%s) was never mined by the benchmark", shard, n, h))
				break
			}
			for _, b := range info.burns {
				burns[b] = true
			}
			for _, b := range info.mints {
				mints[b]++
			}
			h, n = info.parent, n-1
		}
	}
	redeemed := 0
	for b := range burns {
		c := mints[b]
		if c > 0 {
			redeemed++
		}
		if c != 1 {
			bad = append(bad, fmt.Sprintf("burn %s minted %d times", b, c))
		}
	}
	if orphans := len(mints) - redeemed; orphans > 0 {
		bad = append(bad, fmt.Sprintf("%d minted receipts have no canonical burn", orphans))
	}
	return bad
}

// fingerprint hashes the final per-shard state roots: two runs of the same
// inputs and the same slot count must print the same value.
func (r *run) fingerprint() string {
	h := sha256.New()
	for s, shard := range r.c.layout.shards {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(shard))
		h.Write(b[:])
		root := r.c.running(s)[0].Head().Header.StateRoot
		h.Write(root[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
