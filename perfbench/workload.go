package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"

	"contractshard/internal/contract"
	"contractshard/internal/crypto"
	"contractshard/internal/sharding"
	"contractshard/internal/types"
	"contractshard/internal/xshard"
)

// Cluster shape shared by every workload: four contract shards plus the
// MaxShard, two miners each.
const (
	contractShards = 4
	minersPerShard = 2
)

// workload is one traffic shape. Every field is a property of the inputs or
// of the chain configuration the miners are built with; nothing here is a
// program knob.
type workload struct {
	name string
	// accounts is the number of funded user accounts per shard.
	accounts int
	// perSlot is the user transactions each shard receives per slot.
	perSlot int
	// blockTxs is the miners' MaxBlockTxs.
	blockTxs int
	// xshard makes every user transaction a burn to the ring successor
	// shard instead of a contract call (contract shards) or a direct
	// transfer (MaxShard).
	xshard bool
	// outageSlots is how many slots one miner per shard stays closed in
	// each restart cycle.
	outageSlots int
	// maxSlotsPerSec caps how many slots of inputs are generated per
	// measured second: at least twice what the workload runs at on the
	// code it was written against, and more where signing is cheap, so a
	// faster program still gets a full window. A run that exhausts them
	// stops early and says so.
	maxSlotsPerSec float64
}

var workloads = []workload{
	{name: "contract-bigstate", accounts: 10_000, perSlot: 20, blockTxs: 20, outageSlots: 5, maxSlotsPerSec: 40},
	{name: "fresh-fullblock", accounts: 400, perSlot: 200, blockTxs: 200, outageSlots: 24, maxSlotsPerSec: 20},
	{name: "xshard-ring", accounts: 2_000, perSlot: 20, blockTxs: 64, xshard: true, outageSlots: 12, maxSlotsPerSec: 30},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// toy shrinks a workload to test scale, keeping its kind of traffic.
func (w workload) toy() workload {
	w.accounts = 40
	w.perSlot = 6
	if w.blockTxs > 2*w.perSlot {
		w.blockTxs = 2 * w.perSlot
	}
	w.outageSlots = 3
	return w
}

// Genesis balance of every user account, and the value and fee ranges of
// user transactions: far apart, so no sender ever runs dry.
const (
	userFunds = 1 << 40
	maxValue  = 1_000
	maxFee    = 50
)

// layout is the epoch every miner agrees on and the accounts the inputs
// use.
type layout struct {
	// shards lists the MaxShard first, then the contract shards in
	// registration order; every per-shard slice below follows it.
	shards    []types.ShardID
	contracts []types.Address // contract of shards[i+1]
	dests     []types.Address // beneficiary of contracts[i]
	code      map[types.Address][]byte
	dir       *sharding.Directory
	// randomness and fractions are the epoch's public assignment inputs.
	randomness types.Hash
	fractions  []sharding.Fraction
	// minerKeys[i] are the keys of shards[i]'s miners.
	minerKeys [][]*crypto.Keypair
	// users[i] are the funded accounts of shards[i].
	users [][]types.Address
}

// seedBytes derives a 32-byte seed from the run seed and a label.
func seedBytes(seed uint64, label string, i int) [32]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], seed)
	binary.BigEndian.PutUint64(b[8:], uint64(i))
	return sha256.Sum256(append([]byte("perfbench/"+label+"/"), b[:]...))
}

func keyFor(seed uint64, label string, i int) *crypto.Keypair {
	s := seedBytes(seed, label, i)
	priv := ed25519.NewKeyFromSeed(s[:])
	return &crypto.Keypair{Private: priv, Public: priv.Public().(ed25519.PublicKey)}
}

// userKeys derives the user keys of one shard, in parallel.
func userKeys(seed uint64, shard, n int) []*crypto.Keypair {
	keys := make([]*crypto.Keypair, n)
	label := fmt.Sprintf("user/%d", shard)
	parallel(n, func(i int) { keys[i] = keyFor(seed, label, i) })
	return keys
}

// parallel runs fn(0..n-1) on GOMAXPROCS workers and waits for them.
func parallel(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// newLayout registers the contracts, draws the epoch randomness and picks
// miner keys by seeded rejection sampling through sharding.AssignMiner, so
// the blocks they seal pass every peer's VerifyMembership.
func newLayout(seed uint64) (*layout, error) {
	l := &layout{
		code: make(map[types.Address][]byte),
		dir:  sharding.NewDirectory(),
	}
	l.shards = append(l.shards, types.MaxShard)
	counts := map[types.ShardID]int{types.MaxShard: 1}
	for i := 0; i < contractShards; i++ {
		c := types.BytesToAddress([]byte{0xC0, byte(i + 1)})
		d := types.BytesToAddress([]byte{0xDD, byte(i + 1)})
		id := l.dir.Register(c)
		l.shards = append(l.shards, id)
		l.contracts = append(l.contracts, c)
		l.dests = append(l.dests, d)
		l.code[c] = contract.UnconditionalTransfer(d)
		counts[id] = 1
	}
	l.fractions = sharding.ComputeFractions(counts)
	l.randomness = types.Hash(seedBytes(seed, "randomness", 0))

	index := make(map[types.ShardID]int, len(l.shards))
	for i, s := range l.shards {
		index[s] = i
	}
	l.minerKeys = make([][]*crypto.Keypair, len(l.shards))
	need := len(l.shards) * minersPerShard
	for i := 0; need > 0; i++ {
		if i > 1000*len(l.shards) {
			return nil, fmt.Errorf("miner rejection sampling did not fill every shard")
		}
		k := keyFor(seed, "miner", i)
		s, err := sharding.AssignMiner(l.randomness, k.Public, l.fractions)
		if err != nil {
			return nil, err
		}
		if j := index[s]; len(l.minerKeys[j]) < minersPerShard {
			l.minerKeys[j] = append(l.minerKeys[j], k)
			need--
		}
	}
	return l, nil
}

// inputs are the run's pre-signed transactions, one encoded batch per
// slot, held as wire bytes only: a slot's batch is buf[off[i]:off[i+1]].
// No decoded transaction stays alive between slots, and buf lives in an
// anonymous memory mapping outside the Go heap, so the inputs are neither
// scanned by the garbage collector, nor counted in its pacing, nor in
// heap_live_mb.
type inputs struct {
	buf []byte
	off []int
}

func (in *inputs) slots() int { return len(in.off) - 1 }

func (in *inputs) batch(i int) []byte { return in.buf[in.off[i]:in.off[i+1]] }

// free unmaps the inputs. The mapping dies with the process anyway, so an
// error changes nothing.
func (in *inputs) free() { _ = syscall.Munmap(in.buf) }

// generate derives the user accounts and signs slots batches of traffic.
// A shard's senders cycle through a seeded permutation, perSlot of them
// per slot, so one sender never has two transactions in a slot and its
// nonce is its cycle count. Batches interleave shards transaction by
// transaction.
func generate(w workload, l *layout, seed uint64, slots int) (*inputs, error) {
	nShards := len(l.shards)
	keys := make([][]*crypto.Keypair, nShards)
	perm := make([][]int, nShards)
	l.users = make([][]types.Address, nShards)
	for s := range l.shards {
		keys[s] = userKeys(seed, s, w.accounts)
		l.users[s] = make([]types.Address, w.accounts)
		for i, k := range keys[s] {
			l.users[s][i] = k.Address()
		}
		r := rand.New(rand.NewPCG(seed, uint64(s)))
		perm[s] = r.Perm(w.accounts)
	}

	batches := make([][]byte, slots)
	errs := make([]error, slots)
	parallel(slots, func(slot int) {
		r := rand.New(rand.NewPCG(seed^0x5107, uint64(slot)))
		txs := make([]*types.Transaction, 0, nShards*w.perSlot)
		for j := 0; j < w.perSlot; j++ {
			for s := range l.shards {
				pos := slot*w.perSlot + j
				from := perm[s][pos%w.accounts]
				nonce := uint64(pos / w.accounts)
				value := 1 + r.Uint64N(maxValue)
				fee := 1 + r.Uint64N(maxFee)
				k := keys[s][from]
				var tx *types.Transaction
				switch {
				case w.xshard:
					dst := (s + 1) % nShards
					to := l.users[dst][r.IntN(w.accounts)]
					tx = xshard.NewBurn(k.Address(), to, value, fee, nonce, l.shards[s], l.shards[dst])
				case s == 0:
					to := l.users[0][(from+1+r.IntN(w.accounts-1))%w.accounts]
					tx = &types.Transaction{Nonce: nonce, From: k.Address(), To: to, Value: value, Fee: fee}
				default:
					tx = &types.Transaction{Nonce: nonce, From: k.Address(), To: l.contracts[s-1], Value: value, Fee: fee, Data: []byte{1}}
				}
				if err := crypto.SignTx(tx, k); err != nil {
					errs[slot] = err
					return
				}
				txs = append(txs, tx)
			}
		}
		batches[slot] = types.EncodeTransactions(txs)
	})
	size := 0
	for i, b := range batches {
		if errs[i] != nil {
			return nil, errs[i]
		}
		size += len(b)
	}
	buf, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes of inputs: %w", size, err)
	}
	in := &inputs{buf: buf, off: make([]int, 0, slots+1)}
	pos := 0
	for _, b := range batches {
		in.off = append(in.off, pos)
		pos += copy(buf[pos:], b)
	}
	in.off = append(in.off, pos)
	return in, nil
}
