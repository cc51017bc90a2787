package chain

// Benchmarks for the staged AddBlock pipeline and the maintained indexes.
//
// The AddBlockSerial/AddBlockParallel pair is the acceptance check for the
// staged validation pipeline: the same pre-sealed blocks on distinct parents
// are inserted one-by-one versus from concurrent goroutines. Because body
// re-execution runs outside the chain lock, the parallel wall-clock per
// batch should land well under the serial sum on a multi-core machine.
//
// The query benchmarks pin the indexed read paths (FindTx, GetReceipt,
// counters, locator, range serving) at two chain heights; the maintained
// indexes make them O(1)/O(log n), so ns/op should barely move with height.

import (
	"fmt"
	"sync"
	"testing"

	"contractshard/internal/crypto"
	"contractshard/internal/types"
)

// benchSetup builds a chain whose spine holds depth tx-carrying blocks, plus
// one pre-sealed side block (full body, MaxBlockTxs transfers) on each of
// the depth distinct parents. Everything is sealed once up front so timed
// regions measure validation, never mining.
func benchSetup(b *testing.B, depth int) (cfg Config, alloc map[types.Address]uint64, spine, side []*types.Block) {
	b.Helper()
	alice := crypto.KeypairFromSeed("bench-alice")
	bob := crypto.KeypairFromSeed("bench-bob")
	cfg = testConfig(1)
	alloc = map[types.Address]uint64{
		alice.Address(): 1 << 40,
		bob.Address():   1 << 40,
	}
	c, err := New(cfg, alloc)
	if err != nil {
		b.Fatal(err)
	}
	parents := []*types.Block{c.Genesis()}
	nonce := uint64(0)
	for i := 0; i < depth; i++ {
		tx := signedBenchTransfer(b, alice, nonce)
		nonce++
		blk, _, err := c.BuildBlock(types.BytesToAddress([]byte{0xA1}), []*types.Transaction{tx}, uint64(i+1)*1000)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
		spine = append(spine, blk)
		parents = append(parents, blk)
	}
	// One full side block per distinct parent; bob is untouched on the
	// spine, so its nonces start at zero on every branch.
	for i := 0; i < depth; i++ {
		txs := make([]*types.Transaction, cfg.MaxBlockTxs)
		for j := range txs {
			txs[j] = signedBenchTransfer(b, bob, uint64(j))
		}
		side = append(side, execBlockOn(b, c, parents[i], types.BytesToAddress([]byte{0xB0, byte(i)}),
			txs, parents[i].Header.Time+500))
	}
	return cfg, alloc, spine, side
}

func signedBenchTransfer(b *testing.B, from *crypto.Keypair, nonce uint64) *types.Transaction {
	b.Helper()
	tx := &types.Transaction{
		Nonce: nonce,
		From:  from.Address(),
		To:    types.BytesToAddress([]byte{0xDD}),
		Value: 1,
		Fee:   1,
	}
	if err := crypto.SignTx(tx, from); err != nil {
		b.Fatal(err)
	}
	return tx
}

// replayChain rebuilds a fresh chain holding the spine, giving each
// iteration a clean insertion target for the side blocks.
func replayChain(b *testing.B, cfg Config, alloc map[types.Address]uint64, spine []*types.Block) *Chain {
	b.Helper()
	c, err := New(cfg, alloc)
	if err != nil {
		b.Fatal(err)
	}
	for _, blk := range spine {
		if err := c.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func benchAddBlocks(b *testing.B, concurrent bool) {
	const depth = 8
	cfg, alloc, spine, side := benchSetup(b, depth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := replayChain(b, cfg, alloc, spine)
		b.StartTimer()
		if concurrent {
			var wg sync.WaitGroup
			for _, blk := range side {
				wg.Add(1)
				go func(blk *types.Block) {
					defer wg.Done()
					if err := c.AddBlock(blk); err != nil {
						b.Error(err)
					}
				}(blk)
			}
			wg.Wait()
		} else {
			for _, blk := range side {
				if err := c.AddBlock(blk); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAddBlockSerial inserts 8 pre-sealed full blocks one at a time —
// the baseline for the pipeline's overlap claim.
func BenchmarkAddBlockSerial(b *testing.B) { benchAddBlocks(b, false) }

// BenchmarkAddBlockParallel inserts the same 8 blocks from 8 goroutines.
// Validation is CPU-bound (signature verification dominates), so with
// re-execution outside the chain lock this beats the serial baseline on
// any machine with ≥2 cores; on a single core the two converge, which is
// itself evidence the pipeline adds no contention overhead.
func BenchmarkAddBlockParallel(b *testing.B) { benchAddBlocks(b, true) }

// BenchmarkAddBlockUnderReaders measures block insertion while four readers
// hammer the indexed query surface — the regression guard for holding the
// chain lock across re-execution.
func BenchmarkAddBlockUnderReaders(b *testing.B) {
	const depth = 8
	cfg, alloc, spine, side := benchSetup(b, depth)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	warm := replayChain(b, cfg, alloc, spine)
	current := &warm
	var mu sync.Mutex // readers follow the iteration's current chain
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				c := *current
				mu.Unlock()
				_ = c.ConfirmedTxCount()
				_ = c.EmptyBlockCount()
				_ = c.Locator()
				_ = c.BlocksByRange(0, 4)
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := replayChain(b, cfg, alloc, spine)
		mu.Lock()
		current = &c
		mu.Unlock()
		b.StartTimer()
		for _, blk := range side {
			if err := c.AddBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	close(stop)
	readers.Wait()
}

// benchQueryChain grows a canonical chain to the given height, two
// transfers per block, and returns it with the hash of a mid-chain tx.
func benchQueryChain(b *testing.B, height int) (*Chain, types.Hash) {
	b.Helper()
	alice := crypto.KeypairFromSeed("bench-alice")
	c, err := New(testConfig(1), map[types.Address]uint64{alice.Address(): 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	var probe types.Hash
	nonce := uint64(0)
	for i := 0; i < height; i++ {
		txs := []*types.Transaction{
			signedBenchTransfer(b, alice, nonce),
			signedBenchTransfer(b, alice, nonce+1),
		}
		nonce += 2
		blk, _, err := c.BuildBlock(types.BytesToAddress([]byte{0xA1}), txs, uint64(i+1)*1000)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
		if i == height/2 {
			probe = txs[0].Hash()
		}
	}
	return c, probe
}

// BenchmarkIndexedQueries times every maintained-index read path at two
// chain heights. Near-flat ns/op across heights is the acceptance signal
// that no query path re-walks the canonical chain.
func BenchmarkIndexedQueries(b *testing.B) {
	for _, height := range []int{64, 512} {
		c, probe := benchQueryChain(b, height)
		locator := c.Locator()
		head := c.Height()
		b.Run(fmt.Sprintf("FindTx/height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.FindTx(probe); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("GetReceipt/height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := c.GetReceipt(probe); r == nil {
					b.Fatal("receipt missing")
				}
			}
		})
		b.Run(fmt.Sprintf("ConfirmedTxCount/height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c.ConfirmedTxCount() == 0 {
					b.Fatal("no confirmed txs")
				}
			}
		})
		b.Run(fmt.Sprintf("EmptyBlockCount/height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = c.EmptyBlockCount()
			}
		})
		b.Run(fmt.Sprintf("Locator/height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(c.Locator()) == 0 {
					b.Fatal("empty locator")
				}
			}
		})
		b.Run(fmt.Sprintf("CommonAncestor/height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := c.CommonAncestor(locator); !ok {
					b.Fatal("no common ancestor with self")
				}
			}
		})
		b.Run(fmt.Sprintf("BlocksByRange/height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := c.BlocksByRange(head-3, 4); len(got) != 4 {
					b.Fatalf("range length %d", len(got))
				}
			}
		})
	}
}

// BenchmarkProcessBlockSerial executes a 64-tx conflict-free block: distinct
// senders and recipients, signatures already in the verify cache, so it
// times execution alone.
func BenchmarkProcessBlockSerial(b *testing.B) {
	const nTx = 64
	cfg := testConfig(1)
	cfg.MaxBlockTxs = nTx
	alloc := make(map[types.Address]uint64)
	signers := make([]*crypto.Keypair, nTx)
	for i := range signers {
		signers[i] = crypto.KeypairFromSeed(fmt.Sprintf("bench-proc-%d", i))
		alloc[signers[i].Address()] = 1 << 40
	}
	c, err := New(cfg, alloc)
	if err != nil {
		b.Fatal(err)
	}
	txs := make([]*types.Transaction, nTx)
	for i, from := range signers {
		txs[i] = &types.Transaction{From: from.Address(), To: types.BytesToAddress([]byte{0x40, byte(i)}), Value: 1, Fee: 1}
		if err := crypto.SignTx(txs[i], from); err != nil {
			b.Fatal(err)
		}
	}
	coinbase := types.BytesToAddress([]byte{0xA1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := c.HeadState()
		b.StartTimer()
		if _, _, err := c.process(st, txs, coinbase); err != nil {
			b.Fatal(err)
		}
	}
}
