package chain

import (
	"errors"
	"fmt"

	"contractshard/internal/crypto"
	"contractshard/internal/state"
	"contractshard/internal/types"
	"contractshard/internal/xshard"
)

// Cross-shard validation errors (DESIGN.md "Cross-shard receipts").
var (
	ErrBadTxKind     = errors.New("chain: unknown transaction kind")
	ErrBurnShape     = errors.New("chain: malformed cross-shard burn")
	ErrWrongSrcShard = errors.New("chain: burn source is another shard")
	ErrWrongDstShard = errors.New("chain: mint destined for another shard")
	ErrNoHeaderBook  = errors.New("chain: cross-shard minting not enabled on this shard")
	ErrBadSrcHeader  = errors.New("chain: mint source header fails verification or finality")
	ErrReceiptSpent  = errors.New("chain: cross-shard receipt already consumed")
)

// consumedValue is the byte stored in the consumed-set slot of a redeemed
// receipt. Any non-empty value means consumed; the constant keeps encodings
// canonical.
var consumedValue = []byte{1}

// applyBurn executes a TxXShardBurn: the sender's account is debited value
// plus fee on this (the source) shard and the value is destroyed — the
// total supply of this shard's ledger shrinks, to be recreated on the
// destination shard when the receipt is redeemed. The mined burn is the
// receipt; no extra state is written here.
//
// The receipt, r and invalid arguments are applyTransaction's: the invalid
// closure reverts to the pre-transaction snapshot.
func (c *Chain) applyBurn(st *state.State, tx *types.Transaction, coinbase types.Address, r *types.Receipt, invalid func(error) *types.Receipt) *types.Receipt {
	// Shape: a burn moves plain value between shards — no contract call, no
	// extra inputs, no piggybacked proof — and must name this shard as its
	// source and a different shard as its destination. The signature covers
	// both shard ids, so a valid burn cannot be replayed on a third shard.
	if len(tx.Data) != 0 || len(tx.Inputs) != 0 || tx.Gas != 0 || tx.Mint != nil {
		return invalid(fmt.Errorf("%w: data/inputs/gas/proof must be empty", ErrBurnShape))
	}
	if tx.SrcShard != c.cfg.ShardID {
		return invalid(fmt.Errorf("%w: burn names shard %d, this is shard %d", ErrWrongSrcShard, tx.SrcShard, c.cfg.ShardID))
	}
	if tx.DstShard == tx.SrcShard {
		return invalid(fmt.Errorf("%w: source equals destination shard", ErrBurnShape))
	}
	if err := crypto.VerifyTxCached(tx); err != nil {
		return invalid(fmt.Errorf("%w: %v", ErrBadSignature, err))
	}
	if got := st.GetNonce(tx.From); got != tx.Nonce {
		return invalid(fmt.Errorf("%w: state %d tx %d", ErrBadNonce, got, tx.Nonce))
	}
	// Same overflow-safe solvency comparison as the transfer path.
	if bal := st.GetBalance(tx.From); bal < tx.Value || bal-tx.Value < tx.Fee {
		return invalid(fmt.Errorf("%w: balance %d, needs %d value + %d fee", ErrInsufficient, bal, tx.Value, tx.Fee))
	}

	st.SetNonce(tx.From, tx.Nonce+1)
	if err := st.SubBalance(tx.From, tx.Fee); err != nil {
		return invalid(err)
	}
	if err := st.AddBalance(coinbase, tx.Fee); err != nil {
		return invalid(err)
	}
	r.FeePaid = tx.Fee
	// Destroy the value: debit the sender with no matching credit.
	if err := st.SubBalance(tx.From, tx.Value); err != nil {
		return invalid(err)
	}
	r.Status = types.ReceiptSuccess
	return r
}

// applyMint executes a TxXShardMint: after the stateless proof checks
// (xshard.CheckMint), the carried source header chain must satisfy the
// header book's deterministic verification — membership per header plus the
// shard's finality depth of descendants (xshard.AcceptProof) — and the
// receipt must be fresh in the consumed set. Then the burned value is
// recreated in the recipient's account and the receipt is marked consumed.
//
// Every input to this decision travels inside the transaction or is a
// shared consensus parameter, never this node's gossip history: an honest
// validator that missed the TopicXHeaders announcement reaches the same
// verdict as the miner that produced the block, so receipt transactions
// cannot fork honest nodes. Verified headers are booked as a side effect,
// which both warms the cache and persists them for crash-recovery replay.
//
// The consumed set lives in state storage under a reserved system address
// (slot = burn transaction hash), so replay protection inherits every
// property state already has: it is committed by the state root, journaled
// for snapshot/revert, per-branch across reorgs, persisted by checkpoints,
// and rebuilt by body replay during crash recovery.
func (c *Chain) applyMint(st *state.State, tx *types.Transaction, r *types.Receipt, invalid func(error) *types.Receipt) *types.Receipt {
	if err := xshard.CheckMint(tx); err != nil {
		return invalid(err)
	}
	if tx.DstShard != c.cfg.ShardID {
		return invalid(fmt.Errorf("%w: mint names shard %d, this is shard %d", ErrWrongDstShard, tx.DstShard, c.cfg.ShardID))
	}
	if c.cfg.XShard == nil {
		return invalid(ErrNoHeaderBook)
	}
	if err := c.cfg.XShard.AcceptProof(tx.Mint); err != nil {
		return invalid(fmt.Errorf("%w: %v", ErrBadSrcHeader, err))
	}
	burnHash := tx.Mint.Burn.Hash()
	if len(st.GetStorage(types.XShardConsumedAddress, burnHash[:])) != 0 {
		return invalid(fmt.Errorf("%w: burn %s", ErrReceiptSpent, burnHash))
	}
	st.SetStorage(types.XShardConsumedAddress, burnHash[:], consumedValue)
	if err := st.AddBalance(tx.To, tx.Value); err != nil {
		return invalid(err)
	}
	// Mints pay no fee and bump no nonce: the proof is the authorization
	// and the destination miner includes them as a consensus obligation.
	r.Status = types.ReceiptSuccess
	return r
}
