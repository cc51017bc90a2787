package chain

// Chain-level tests for the receipts method: end-to-end burn→receipt→mint
// between two shard chains, the adversarial-proof sweep (state-neutral
// rejection, mirroring apply_test.go's invalid-tx contract), and the
// replay-protection property — a receipt never mints twice, across blocks,
// reorgs and FileStore restarts.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"contractshard/internal/crypto"
	"contractshard/internal/pow"
	"contractshard/internal/store"
	"contractshard/internal/types"
	"contractshard/internal/xshard"
)

// xfix is a two-shard world: alice is funded on the source shard 1, and
// shard 2 is the destination whose header book tracks shard 1 headers.
type xfix struct {
	src, dst *Chain
	book     *xshard.HeaderBook
	alice    *crypto.Keypair
	bob      types.Address
	miner    types.Address
}

// newXFix builds the two chains. dstStore, when non-nil, persists the
// destination chain and its header book (restart tests reopen it).
func newXFix(t *testing.T, dstStore store.Store) *xfix {
	t.Helper()
	alice := crypto.KeypairFromSeed("xshard-alice")
	src, err := New(testConfig(1), map[types.Address]uint64{alice.Address(): 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	book := xshard.NewHeaderBook(1, nil)
	if dstStore != nil {
		if err := book.Attach(dstStore); err != nil {
			t.Fatal(err)
		}
	}
	dcfg := testConfig(2)
	dcfg.XShard = book
	dcfg.Store = dstStore
	dst, err := New(dcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &xfix{
		src: src, dst: dst, book: book,
		alice: alice,
		bob:   crypto.KeypairFromSeed("xshard-bob").Address(),
		miner: types.BytesToAddress([]byte{0xA1}),
	}
}

// burnAndProve signs a burn, mines it on the source shard, buries it under
// one more source block (the fixture book's finality depth), and returns the
// mint carrying the proof plus that descendant as finality evidence. The
// destination's book is deliberately NOT fed the header — mints must verify
// from their own carried evidence, never from gossip history.
func (f *xfix) burnAndProve(t *testing.T, nonce, value, fee uint64) *types.Transaction {
	t.Helper()
	burn := xshard.NewBurn(f.alice.Address(), f.bob, value, fee, nonce, 1, 2)
	if err := crypto.SignTx(burn, f.alice); err != nil {
		t.Fatal(err)
	}
	// A filler transfer rides along so the inclusion proof has a sibling
	// (single-leaf proofs have nothing to tamper with in the sweep).
	filler := signedTx(t, f.alice, nonce+1, f.alice.Address(), 0, 1)
	blk, _, err := f.src.BuildBlock(f.miner, []*types.Transaction{burn, filler}, f.src.Head().Header.Time+1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.src.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 2 {
		t.Fatalf("burn not mined: %d txs", len(blk.Txs))
	}
	// One empty block on top buries the burn to the book's finality depth.
	child, _, err := f.src.BuildBlock(f.miner, nil, f.src.Head().Header.Time+2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.src.AddBlock(child); err != nil {
		t.Fatal(err)
	}
	proof, header, err := f.src.ProveInclusion(burn.Hash())
	if err != nil {
		t.Fatal(err)
	}
	return xshard.NewMint(burn, proof, header, []*types.Header{child.Header})
}

// mineOnDst mines the given transactions into the destination chain and
// returns the block.
func (f *xfix) mineOnDst(t *testing.T, txs ...*types.Transaction) *types.Block {
	t.Helper()
	blk, _, err := f.dst.BuildBlock(f.miner, txs, f.dst.Head().Header.Time+1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.dst.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	return blk
}

// sealAdversarialBlock hand-builds a sealed, statelessly valid destination
// block containing txs — bypassing the producer's invalid-tx filtering — so
// AddBlock's re-execution is what must reject it.
func (f *xfix) sealAdversarialBlock(t *testing.T, txs []*types.Transaction) *types.Block {
	t.Helper()
	parent := f.dst.Head().Header
	h := &types.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number + 1,
		Time:       parent.Time + 1000,
		Difficulty: f.dst.cfg.Difficulty,
		Coinbase:   f.miner,
		ShardID:    2,
		GasLimit:   f.dst.cfg.GasLimit,
	}
	blk := types.NewBlock(h, txs)
	if err := pow.Seal(h, 1<<24); err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestXShardTransferEndToEnd: the full burn→receipt→mint path between two
// chains, with value conservation on both sides and the consumed-set mark
// landing in destination state.
func TestXShardTransferEndToEnd(t *testing.T) {
	f := newXFix(t, nil)
	const value, fee = 40_000, 7

	mint := f.burnAndProve(t, 0, value, fee)

	// Source side: alice paid value+fee (plus the filler's fee of 1); the
	// value is destroyed — only the fees and block reward reappear in the
	// miner's account.
	if got := f.src.HeadBalance(f.alice.Address()); got != 1_000_000-value-fee-1 {
		t.Fatalf("alice after burn = %d", got)
	}
	// Two source blocks were mined: the burn's and the burial block.
	if got := f.src.HeadBalance(f.miner); got != 2*f.src.cfg.BlockReward+fee+1 {
		t.Fatalf("src miner after burn = %d", got)
	}
	if got := f.src.HeadNonce(f.alice.Address()); got != 2 {
		t.Fatalf("alice nonce after burn = %d", got)
	}

	// Destination side: the mint recreates the value for bob.
	blk := f.mineOnDst(t, mint)
	if len(blk.Txs) != 1 {
		t.Fatalf("mint not mined: %d txs", len(blk.Txs))
	}
	if got := f.dst.HeadBalance(f.bob); got != value {
		t.Fatalf("bob after mint = %d, want %d", got, value)
	}
	r := f.dst.GetReceipt(mint.Hash())
	if r == nil || r.Status != types.ReceiptSuccess {
		t.Fatalf("mint receipt = %+v", r)
	}
	if r.FeePaid != 0 {
		t.Fatalf("mint paid a fee: %d", r.FeePaid)
	}
	// The consumed set recorded the burn.
	burnHash := mint.Mint.Burn.Hash()
	if len(f.dst.HeadState().GetStorage(types.XShardConsumedAddress, burnHash[:])) == 0 {
		t.Fatal("consumed set missing the redeemed receipt")
	}
}

// TestMintAdversarialSweep: every forged variant is rejected with
// ReceiptInvalid and leaves the destination state bit-identical — the
// snapshot/revert parity contract from the invalid-tx sweep.
func TestMintAdversarialSweep(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(f *xfix, mint *types.Transaction) *types.Transaction
	}{
		{"tampered proof path", func(f *xfix, m *types.Transaction) *types.Transaction {
			m.Mint.Proof.Siblings[0][3] ^= 0xFF
			return m
		}},
		{"amount mismatch", func(f *xfix, m *types.Transaction) *types.Transaction {
			m.Value += 1
			return m
		}},
		{"redirected recipient", func(f *xfix, m *types.Transaction) *types.Transaction {
			m.To = types.BytesToAddress([]byte{0x99})
			return m
		}},
		{"wrong destination shard", func(f *xfix, m *types.Transaction) *types.Transaction {
			// A lane-consistent mint for shard 3, presented to shard 2.
			burn := xshard.NewBurn(f.alice.Address(), f.bob, 100, 1, 2, 1, 3)
			if err := crypto.SignTx(burn, f.alice); err != nil {
				t.Fatal(err)
			}
			blk, _, err := f.src.BuildBlock(f.miner, []*types.Transaction{burn}, f.src.Head().Header.Time+1000)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.src.AddBlock(blk); err != nil {
				t.Fatal(err)
			}
			proof, header, err := f.src.ProveInclusion(burn.Hash())
			if err != nil {
				t.Fatal(err)
			}
			// Lane check fires before the book, so no descendants needed.
			return xshard.NewMint(burn, proof, header, nil)
		}},
		{"unfinalized source header", func(f *xfix, m *types.Transaction) *types.Transaction {
			// A privately mined source block the adversary never buried:
			// internally consistent proof, valid seal, but zero descendant
			// headers — short of the destination's finality depth, so a
			// source-shard member cannot mint off a never-canonical burn.
			burn := m.Mint.Burn
			fake := &types.Header{
				Number:     99,
				ShardID:    1,
				Difficulty: 2,
				TxRoot:     types.TxRoot([]*types.Transaction{burn}),
			}
			if err := pow.Seal(fake, 1<<20); err != nil {
				t.Fatal(err)
			}
			proof, err := types.BuildTxProof([]*types.Transaction{burn}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return xshard.NewMint(burn, proof, fake, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newXFix(t, nil)
			mint := tc.mutate(f, f.burnAndProve(t, 0, 40_000, 7))

			st := f.dst.HeadState()
			root := st.Root()
			r := f.dst.applyTransaction(st, mint, f.miner)
			if r.Status != types.ReceiptInvalid {
				t.Fatalf("status = %s (%s), want invalid", r.Status, r.Err)
			}
			if st.Root() != root {
				t.Fatal("rejected mint mutated state")
			}
			// The producer drops it...
			blk, _, err := f.dst.BuildBlock(f.miner, []*types.Transaction{mint}, f.dst.Head().Header.Time+1000)
			if err != nil {
				t.Fatal(err)
			}
			if len(blk.Txs) != 0 {
				t.Fatal("producer included a forged mint")
			}
			// ...and a hand-built block carrying it is rejected wholesale.
			bad := f.sealAdversarialBlock(t, []*types.Transaction{mint})
			if err := f.dst.AddBlock(bad); !errors.Is(err, ErrInvalidTx) {
				t.Fatalf("adversarial block: got %v, want ErrInvalidTx", err)
			}
		})
	}
}

// TestMintWithoutHeaderBook: a chain with no header book rejects every
// mint — single-shard deployments stay closed.
func TestMintWithoutHeaderBook(t *testing.T) {
	f := newXFix(t, nil)
	mint := f.burnAndProve(t, 0, 40_000, 7)
	closed, err := New(testConfig(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := closed.HeadState()
	r := closed.applyTransaction(st, mint, f.miner)
	if r.Status != types.ReceiptInvalid {
		t.Fatalf("status = %s, want invalid", r.Status)
	}
}

// TestReceiptNeverMintsTwice: the replay-protection property. The same
// receipt is rejected in the same block, in a later block, and the rejection
// is state-neutral.
func TestReceiptNeverMintsTwice(t *testing.T) {
	f := newXFix(t, nil)
	const value = 40_000
	mint := f.burnAndProve(t, 0, value, 7)

	// Same block: the producer keeps only the first copy; a hand-built
	// block with both is rejected wholesale.
	dup := xshard.NewMint(mint.Mint.Burn, mint.Mint.Proof, mint.Mint.Header, mint.Mint.Descendants)
	blk, _, err := f.dst.BuildBlock(f.miner, []*types.Transaction{mint, dup}, f.dst.Head().Header.Time+1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 1 {
		t.Fatalf("producer mined the same receipt %d times", len(blk.Txs))
	}
	bad := f.sealAdversarialBlock(t, []*types.Transaction{mint, dup})
	if err := f.dst.AddBlock(bad); !errors.Is(err, ErrInvalidTx) {
		t.Fatalf("double-mint block: got %v, want ErrInvalidTx", err)
	}

	// Later block: after the mint is canonical, re-minting is invalid and
	// state-neutral.
	if err := f.dst.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	if got := f.dst.HeadBalance(f.bob); got != value {
		t.Fatalf("bob = %d after first mint", got)
	}
	st := f.dst.HeadState()
	root := st.Root()
	r := f.dst.applyTransaction(st, dup, f.miner)
	if r.Status != types.ReceiptInvalid {
		t.Fatalf("replay status = %s (%s)", r.Status, r.Err)
	}
	if st.Root() != root {
		t.Fatal("replayed mint mutated state")
	}
	blk2, _, err := f.dst.BuildBlock(f.miner, []*types.Transaction{dup}, f.dst.Head().Header.Time+2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk2.Txs) != 0 {
		t.Fatal("producer re-mined a consumed receipt")
	}
}

// TestReceiptAcrossReorg: the consumed set is per-branch. When the minting
// block is reorged out, the receipt is redeemable on the winning branch —
// and afterwards bob has been paid exactly once on the canonical chain.
func TestReceiptAcrossReorg(t *testing.T) {
	f := newXFix(t, nil)
	const value = 40_000
	mint := f.burnAndProve(t, 0, value, 7)

	// Branch A: mint at height 1.
	branchA := f.mineOnDst(t, mint)
	if got := f.dst.HeadBalance(f.bob); got != value {
		t.Fatalf("bob on branch A = %d", got)
	}

	// Branch B: two empty blocks from genesis win fork choice.
	genesis := f.dst.Genesis()
	b1 := f.sealChildOf(t, genesis.Header, nil)
	if err := f.dst.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	b2 := f.sealChildOf(t, b1.Header, nil)
	if err := f.dst.AddBlock(b2); err != nil {
		t.Fatal(err)
	}
	if f.dst.Head().Hash() == branchA.Hash() {
		t.Fatal("reorg did not happen")
	}
	// The mint is no longer canonical; bob is unpaid on this branch...
	if got := f.dst.HeadBalance(f.bob); got != 0 {
		t.Fatalf("bob after reorg = %d, want 0", got)
	}
	// ...so the receipt redeems here, exactly once.
	blk, _, err := f.dst.BuildBlock(f.miner, []*types.Transaction{mint}, f.dst.Head().Header.Time+1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 1 {
		t.Fatal("receipt not redeemable on the winning branch")
	}
	if err := f.dst.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	if got := f.dst.HeadBalance(f.bob); got != value {
		t.Fatalf("bob after re-mint = %d, want exactly %d", got, value)
	}
	// And it is consumed again on the new branch.
	blk2, _, err := f.dst.BuildBlock(f.miner, []*types.Transaction{mint}, f.dst.Head().Header.Time+2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk2.Txs) != 0 {
		t.Fatal("receipt minted twice on one branch")
	}
}

// TestMintValidityIsObjective: the consensus-safety property behind the
// receipts design. A validator that missed every TopicXHeaders announcement
// — its header book is empty and was never fed by gossip — must accept the
// exact block an up-to-date miner produced, because mint validity is a pure
// function of the transaction's carried evidence plus shared consensus
// parameters. Were it keyed on node-local gossip history, the shard would
// fork on message loss.
func TestMintValidityIsObjective(t *testing.T) {
	f := newXFix(t, nil)
	mint := f.burnAndProve(t, 0, 40_000, 7)
	blk := f.mineOnDst(t, mint)
	if len(blk.Txs) != 1 {
		t.Fatalf("mint not mined: %d txs", len(blk.Txs))
	}

	// A second destination validator: same genesis and consensus parameters,
	// cold header book, zero gossip history.
	cfg := testConfig(2)
	cfg.XShard = xshard.NewHeaderBook(1, nil)
	cold, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.AddBlock(blk); err != nil {
		t.Fatalf("cold validator rejected a valid mint block: %v", err)
	}
	if got := cold.HeadBalance(f.bob); got != 40_000 {
		t.Fatalf("bob on cold validator = %d", got)
	}
}

// TestReorgReinjectsDroppedTxs: Config.OnReorg hands back the transactions a
// losing branch confirmed and the winning branch did not — the hook the node
// uses to return reorged-out mints to its pool (the relay's watermark has
// already advanced past them, so nothing upstream would ever resend).
func TestReorgReinjectsDroppedTxs(t *testing.T) {
	f := newXFix(t, nil)
	mint := f.burnAndProve(t, 0, 40_000, 7)

	var dropped []*types.Transaction
	cfg := testConfig(2)
	cfg.XShard = xshard.NewHeaderBook(1, nil)
	cfg.OnReorg = func(txs []*types.Transaction) { dropped = append(dropped, txs...) }
	dst, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.dst = dst

	// Branch A confirms the mint at height 1.
	branchA := f.mineOnDst(t, mint)
	if len(branchA.Txs) != 1 {
		t.Fatal("mint not mined on branch A")
	}
	// Branch B: two empty blocks win fork choice; the mint falls out.
	b1 := f.sealChildOf(t, dst.Genesis().Header, nil)
	if err := dst.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Fatalf("hook fired before the reorg: %d txs", len(dropped))
	}
	b2 := f.sealChildOf(t, b1.Header, nil)
	if err := dst.AddBlock(b2); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0].Hash() != mint.Hash() {
		t.Fatalf("reorged-out mint not handed back: %d txs", len(dropped))
	}
	// A transaction the winning branch re-confirms is NOT handed back.
	dropped = nil
	blk, _, err := dst.BuildBlock(f.miner, []*types.Transaction{mint}, dst.Head().Header.Time+1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	c1 := f.sealChildOf(t, b2.Header, []*types.Transaction{mint})
	if err := dst.AddBlock(c1); err != nil {
		t.Fatal(err)
	}
	c2 := f.sealChildOf(t, c1.Header, nil)
	if err := dst.AddBlock(c2); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Fatalf("re-confirmed mint handed back as dropped: %d txs", len(dropped))
	}
}

// sealChildOf hand-mines an empty block on an arbitrary parent (BuildBlock
// only extends the head, reorg tests need side branches).
func (f *xfix) sealChildOf(t *testing.T, parent *types.Header, txs []*types.Transaction) *types.Block {
	t.Helper()
	st := f.dst.StateAt(parent.Hash())
	if st == nil {
		t.Fatal("no state at parent")
	}
	work := st.Copy()
	receipts, gasUsed, err := f.dst.process(work, txs, f.miner)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range receipts {
		if r.Status == types.ReceiptInvalid {
			t.Fatalf("invalid tx in side block: %s", r.Err)
		}
	}
	h := &types.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number + 1,
		Time:       parent.Time + 500,
		Difficulty: f.dst.cfg.Difficulty,
		Coinbase:   f.miner,
		StateRoot:  work.Root(),
		ShardID:    2,
		GasLimit:   f.dst.cfg.GasLimit,
		GasUsed:    gasUsed,
	}
	blk := types.NewBlock(h, txs)
	if err := pow.Seal(h, 1<<24); err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestReceiptSurvivesRestart: the tentpole's crash-safety criterion at the
// chain layer. The destination runs on a FileStore; after the mint is
// confirmed the process "crashes" (store closed, everything in memory
// dropped) and a fresh chain recovers from the same directory — recovery
// replays the mint through full verification, which requires the header
// book to have been re-attached first. The receipt stays consumed after
// recovery.
func TestReceiptSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := newXFix(t, s)
	const value = 40_000
	mint := f.burnAndProve(t, 0, value, 7)
	f.mineOnDst(t, mint)
	if err := f.dst.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: reopen the store, re-attach the book BEFORE constructing the
	// chain (recovery replay verifies mints against it), recover.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	book := xshard.NewHeaderBook(1, nil)
	if err := book.Attach(s2); err != nil {
		t.Fatal(err)
	}
	if book.Len() == 0 {
		t.Fatal("header book empty after restart")
	}
	cfg := testConfig(2)
	cfg.XShard = book
	cfg.Store = s2
	dst, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if got := dst.HeadBalance(f.bob); got != value {
		t.Fatalf("bob after recovery = %d, want %d", got, value)
	}
	// The recovered consumed set still blocks a replay.
	blk, _, err := dst.BuildBlock(f.miner, []*types.Transaction{mint}, dst.Head().Header.Time+1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != 0 {
		t.Fatal("receipt minted twice across a restart")
	}
}

// TestBurnRestartBetweenBurnAndMint: the acceptance criterion's restart
// point — the crash happens BETWEEN burn and mint. The burn is mined on the
// source, then the destination restarts; the mint must still verify
// afterwards with no gossip history at all, purely from the evidence it
// carries (the restarted book is empty — and that must not matter).
func TestBurnRestartBetweenBurnAndMint(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := newXFix(t, s)
	const value = 40_000
	mint := f.burnAndProve(t, 0, value, 7) // burn mined, header in the book
	if err := f.dst.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	book := xshard.NewHeaderBook(1, nil)
	if err := book.Attach(s2); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.XShard = book
	cfg.Store = s2
	dst, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk, _, err := dst.BuildBlock(f.miner, []*types.Transaction{mint}, dst.Head().Header.Time+1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AddBlock(blk); err != nil {
		t.Fatal(err)
	}
	if got := dst.HeadBalance(f.bob); got != value {
		t.Fatalf("bob after restart-then-mint = %d, want %d", got, value)
	}
}

// TestBurnAdversarialShapes: burns with the wrong source shard, equal
// shards, piggybacked payloads, bad nonce or insolvency are all rejected
// state-neutrally on the source chain.
func TestBurnAdversarialShapes(t *testing.T) {
	f := newXFix(t, nil)
	mk := func(mutate func(*types.Transaction)) *types.Transaction {
		burn := xshard.NewBurn(f.alice.Address(), f.bob, 100, 1, 0, 1, 2)
		mutate(burn)
		if err := crypto.SignTx(burn, f.alice); err != nil {
			t.Fatal(err)
		}
		return burn
	}
	cases := []struct {
		name string
		tx   *types.Transaction
	}{
		{"wrong source shard", mk(func(b *types.Transaction) { b.SrcShard = 3 })},
		{"source equals destination", mk(func(b *types.Transaction) { b.DstShard = 1 })},
		{"piggybacked data", mk(func(b *types.Transaction) { b.Data = []byte{1} })},
		{"piggybacked gas", mk(func(b *types.Transaction) { b.Gas = 5 })},
		{"bad nonce", mk(func(b *types.Transaction) { b.Nonce = 9 })},
		{"insolvent", mk(func(b *types.Transaction) { b.Value = 2_000_000 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := f.src.HeadState()
			root := st.Root()
			r := f.src.applyTransaction(st, tc.tx, f.miner)
			if r.Status != types.ReceiptInvalid {
				t.Fatalf("status = %s (%s), want invalid", r.Status, r.Err)
			}
			if st.Root() != root {
				t.Fatal("rejected burn mutated state")
			}
		})
	}
}

// TestXShardDifferentialFuzz extends TestProcessDifferentialFuzz with the
// cross-shard kinds: valid and wrong-source burns, valid mints, duplicate
// mints (same receipt twice in one body) and tampered mints, all
// interleaved with plain transfers that touch the same accounts the mints
// credit. Each result is checked against the ledger model (checkLedger),
// whose supply rule is where burned and minted value shows up.
func TestXShardDifferentialFuzz(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*104729 + 3))

			signers := make([]*crypto.Keypair, 4)
			alloc := make(map[types.Address]uint64)
			for i := range signers {
				signers[i] = crypto.KeypairFromSeed(fmt.Sprintf("xfuzz-%d-%d", trial, i))
				alloc[signers[i].Address()] = 1_000_000
			}
			coinbase := types.BytesToAddress([]byte{0xA1})

			// Source world: shard 9 mines burns destined for shard 1 (the
			// chain under test), crediting the same signer accounts the local
			// transfers fight over.
			srcSigner := crypto.KeypairFromSeed(fmt.Sprintf("xfuzz-src-%d", trial))
			srcChain, err := New(testConfig(9), map[types.Address]uint64{srcSigner.Address(): 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			book := xshard.NewHeaderBook(0, nil)
			nBurns := 2 + rng.Intn(3)
			mints := make([]*types.Transaction, 0, nBurns)
			for i := 0; i < nBurns; i++ {
				burn := xshard.NewBurn(srcSigner.Address(), signers[rng.Intn(len(signers))].Address(),
					uint64(100+rng.Intn(900)), uint64(1+rng.Intn(4)), uint64(i), 9, 1)
				if err := crypto.SignTx(burn, srcSigner); err != nil {
					t.Fatal(err)
				}
				blk, _, err := srcChain.BuildBlock(coinbase, []*types.Transaction{burn}, srcChain.Head().Header.Time+1000)
				if err != nil {
					t.Fatal(err)
				}
				if err := srcChain.AddBlock(blk); err != nil {
					t.Fatal(err)
				}
				proof, header, err := srcChain.ProveInclusion(burn.Hash())
				if err != nil {
					t.Fatal(err)
				}
				if err := book.Add(header); err != nil {
					t.Fatal(err)
				}
				mints = append(mints, xshard.NewMint(burn, proof, header, nil))
			}

			cfg := fuzzConfig()
			cfg.XShard = book
			c, err := New(cfg, alloc)
			if err != nil {
				t.Fatal(err)
			}

			nonces := make(map[types.Address]uint64)
			var txs []*types.Transaction
			for _, m := range mints {
				txs = append(txs, m)
				if rng.Intn(2) == 0 { // duplicate delivery: second copy invalid
					txs = append(txs, xshard.NewMint(m.Mint.Burn, m.Mint.Proof, m.Mint.Header, nil))
				}
				if rng.Intn(2) == 0 { // tampered amount: invalid
					bad := xshard.NewMint(m.Mint.Burn, m.Mint.Proof, m.Mint.Header, nil)
					bad.Value++
					txs = append(txs, bad)
				}
			}
			n := 10 + rng.Intn(20)
			for i := 0; i < n; i++ {
				from := signers[rng.Intn(len(signers))]
				switch rng.Intn(4) {
				case 0: // valid burn off shard 1
					burn := xshard.NewBurn(from.Address(), signers[rng.Intn(len(signers))].Address(),
						uint64(rng.Intn(300)), uint64(1+rng.Intn(4)), nonces[from.Address()], 1, 2)
					if err := crypto.SignTx(burn, from); err != nil {
						t.Fatal(err)
					}
					nonces[from.Address()]++
					txs = append(txs, burn)
				case 1: // burn naming the wrong source shard: invalid
					burn := xshard.NewBurn(from.Address(), signers[0].Address(),
						50, 1, nonces[from.Address()], 3, 2)
					if err := crypto.SignTx(burn, from); err != nil {
						t.Fatal(err)
					}
					txs = append(txs, burn)
				default: // plain transfer, often to a mint recipient
					tx := &types.Transaction{
						Nonce: nonces[from.Address()],
						From:  from.Address(),
						To:    signers[rng.Intn(len(signers))].Address(),
						Value: uint64(rng.Intn(400)),
						Fee:   uint64(1 + rng.Intn(4)),
					}
					if err := crypto.SignTx(tx, from); err != nil {
						t.Fatal(err)
					}
					nonces[from.Address()]++
					txs = append(txs, tx)
				}
			}
			// Shuffle so mints land between transfers touching the accounts they credit.
			rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })

			pre, st := c.HeadState(), c.HeadState()
			rs, _, err := c.process(st, txs, coinbase)
			if err != nil {
				t.Fatal(err)
			}
			checkLedger(t, c, pre, st, coinbase, txs, rs)
		})
	}
}
