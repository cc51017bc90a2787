package types

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync/atomic"
)

// Transaction is an account-model transaction. Following the paper's setting
// (Sec. II-A), a transaction is either
//
//   - a contract invocation: To is a contract account, Data carries the call
//     input, and the contract's program decides which transfers happen; or
//   - a direct transfer between externally owned accounts: To is a user
//     account and Data is empty.
//
// Fee is the transaction fee the miner collects on confirmation — the
// quantity miners compete over in both the serialized baseline (Sec. II-B)
// and the intra-shard congestion game (Sec. IV-B).
//
// Inputs lists the accounts whose balances the validation reads in addition
// to the sender. It models the paper's "3-input transactions" (Sec. VI-B2):
// in a randomly sharded system each extra input may live in another shard
// and force cross-shard communication.
type Transaction struct {
	Nonce  uint64  // sender's transaction count, for replay protection
	From   Address // sender account
	To     Address // recipient: user account or contract account
	Value  uint64  // amount transferred (or escrowed to the contract)
	Fee    uint64  // fee paid to the confirming miner
	Gas    uint64  // execution budget for contract calls
	Data   []byte  // contract call input; empty for direct transfers
	Inputs []Address

	// Kind selects the transaction's semantics; the zero value is an
	// ordinary transfer/contract call. SrcShard and DstShard are meaningful
	// for the cross-shard kinds only (see xshard.go): a burn destroys value
	// on SrcShard for recreation on DstShard, and both are covered by the
	// sender's signature so a receipt is bound to exactly one lane.
	Kind     TxKind
	SrcShard ShardID
	DstShard ShardID
	// Mint carries the burn receipt of a TxXShardMint: the mined burn
	// transaction, its inclusion proof and the source block header. nil for
	// every other kind. Mint transactions are unsigned — the proof is the
	// authorization — and their hash commits to the full proof contents.
	Mint *MintProof

	// PubKey and Sig authenticate the transaction. PubKey must hash to From.
	PubKey []byte
	Sig    []byte

	// cachedHash memoizes Hash(). Atomic because transactions are hashed
	// concurrently (concurrent AddBlock re-executions, the verify cache); the
	// noCopy inside makes stale-cache struct copies a vet error.
	cachedHash atomic.Pointer[Hash]
}

// Clone returns a mutable copy of the transaction with an empty hash cache.
// Byte fields are deep-copied; the Mint proof pointer is shared, since mint
// proofs are immutable once built. Use Clone to derive altered transactions
// instead of copying the struct, which vet rejects (stale-cache protection).
func (tx *Transaction) Clone() *Transaction {
	c := &Transaction{
		Nonce: tx.Nonce, From: tx.From, To: tx.To,
		Value: tx.Value, Fee: tx.Fee, Gas: tx.Gas,
		Kind: tx.Kind, SrcShard: tx.SrcShard, DstShard: tx.DstShard,
		Mint: tx.Mint,
	}
	if tx.Data != nil {
		c.Data = append([]byte(nil), tx.Data...)
	}
	if tx.Inputs != nil {
		c.Inputs = append([]Address(nil), tx.Inputs...)
	}
	if tx.PubKey != nil {
		c.PubKey = append([]byte(nil), tx.PubKey...)
	}
	if tx.Sig != nil {
		c.Sig = append([]byte(nil), tx.Sig...)
	}
	return c
}

// txDomain domain-separates transaction digests from every other digest in
// the system.
var txDomain = []byte("contractshard/tx/v1")

// SigHash returns the digest a sender signs: everything except PubKey/Sig.
// The kind and shard lane are covered, so a signed transfer cannot be
// replayed as a burn (or re-routed to another destination shard); a mint's
// digest additionally covers its full proof, so two mints carrying different
// proofs for the same receipt have distinct hashes and cannot mask each
// other in a pool.
func (tx *Transaction) SigHash() Hash {
	e := GetEncoder()
	defer PutEncoder(e)
	e.WriteBytes(txDomain)
	e.WriteUint64(tx.Nonce)
	e.WriteAddress(tx.From)
	e.WriteAddress(tx.To)
	e.WriteUint64(tx.Value)
	e.WriteUint64(tx.Fee)
	e.WriteUint64(tx.Gas)
	e.WriteBytes(tx.Data)
	e.BeginList(len(tx.Inputs))
	for _, in := range tx.Inputs {
		e.WriteAddress(in)
	}
	e.WriteUint64(uint64(tx.Kind))
	e.WriteUint64(uint64(tx.SrcShard))
	e.WriteUint64(uint64(tx.DstShard))
	if tx.Mint != nil {
		e.WriteUint64(1)
		tx.Mint.encode(e)
	} else {
		e.WriteUint64(0)
	}
	return sha256.Sum256(e.Bytes())
}

// Hash returns the transaction hash over all fields including the signature.
// The result is cached; a transaction must not be mutated after its hash has
// been requested.
func (tx *Transaction) Hash() Hash {
	if p := tx.cachedHash.Load(); p != nil {
		return *p
	}
	e := GetEncoder()
	e.WriteHash(tx.SigHash())
	e.WriteBytes(tx.PubKey)
	e.WriteBytes(tx.Sig)
	sum := Hash(sha256.Sum256(e.Bytes()))
	PutEncoder(e)
	tx.cachedHash.Store(&sum)
	return sum
}

// IsContractCall reports whether the transaction invokes a contract, which
// is signalled by non-empty call data.
func (tx *Transaction) IsContractCall() bool { return len(tx.Data) > 0 }

// Encode appends the full transaction to e.
func (tx *Transaction) Encode(e *Encoder) {
	e.WriteUint64(tx.Nonce)
	e.WriteAddress(tx.From)
	e.WriteAddress(tx.To)
	e.WriteUint64(tx.Value)
	e.WriteUint64(tx.Fee)
	e.WriteUint64(tx.Gas)
	e.WriteBytes(tx.Data)
	e.BeginList(len(tx.Inputs))
	for _, in := range tx.Inputs {
		e.WriteAddress(in)
	}
	e.WriteUint64(uint64(tx.Kind))
	e.WriteUint64(uint64(tx.SrcShard))
	e.WriteUint64(uint64(tx.DstShard))
	if tx.Mint != nil {
		e.WriteUint64(1)
		tx.Mint.encode(e)
	} else {
		e.WriteUint64(0)
	}
	e.WriteBytes(tx.PubKey)
	e.WriteBytes(tx.Sig)
}

// DecodeTransaction reads a transaction previously written by Encode.
func DecodeTransaction(d *Decoder) (*Transaction, error) {
	return decodeTransactionDepth(d, 0)
}

// decodeTransactionDepth implements DecodeTransaction; depth > 0 marks the
// burn transaction nested inside a mint proof, which must not itself carry a
// proof — otherwise an attacker could nest mints arbitrarily deep and blow
// the decoder's stack.
func decodeTransactionDepth(d *Decoder, depth int) (*Transaction, error) {
	tx := &Transaction{}
	var err error
	if tx.Nonce, err = d.ReadUint64(); err != nil {
		return nil, fmt.Errorf("tx nonce: %w", err)
	}
	if tx.From, err = d.ReadAddress(); err != nil {
		return nil, fmt.Errorf("tx from: %w", err)
	}
	if tx.To, err = d.ReadAddress(); err != nil {
		return nil, fmt.Errorf("tx to: %w", err)
	}
	if tx.Value, err = d.ReadUint64(); err != nil {
		return nil, fmt.Errorf("tx value: %w", err)
	}
	if tx.Fee, err = d.ReadUint64(); err != nil {
		return nil, fmt.Errorf("tx fee: %w", err)
	}
	if tx.Gas, err = d.ReadUint64(); err != nil {
		return nil, fmt.Errorf("tx gas: %w", err)
	}
	if tx.Data, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("tx data: %w", err)
	}
	n, err := d.ReadList()
	if err != nil {
		return nil, fmt.Errorf("tx inputs: %w", err)
	}
	tx.Inputs = make([]Address, n)
	for i := range tx.Inputs {
		if tx.Inputs[i], err = d.ReadAddress(); err != nil {
			return nil, fmt.Errorf("tx input %d: %w", i, err)
		}
	}
	kind, err := d.ReadUint64()
	if err != nil {
		return nil, fmt.Errorf("tx kind: %w", err)
	}
	if kind > uint64(TxXShardMint) {
		return nil, fmt.Errorf("%w: unknown tx kind %d", ErrBadEncoding, kind)
	}
	tx.Kind = TxKind(kind)
	src, err := d.ReadUint64()
	if err != nil {
		return nil, fmt.Errorf("tx src shard: %w", err)
	}
	dst, err := d.ReadUint64()
	if err != nil {
		return nil, fmt.Errorf("tx dst shard: %w", err)
	}
	if src > math.MaxUint32 || dst > math.MaxUint32 {
		return nil, fmt.Errorf("%w: tx shard id overflows", ErrBadEncoding)
	}
	tx.SrcShard, tx.DstShard = ShardID(src), ShardID(dst)
	hasMint, err := d.ReadUint64()
	if err != nil {
		return nil, fmt.Errorf("tx mint flag: %w", err)
	}
	switch hasMint {
	case 0:
	case 1:
		if depth > 0 {
			return nil, fmt.Errorf("%w: nested mint proof", ErrBadEncoding)
		}
		if tx.Mint, err = decodeMintProof(d); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: tx mint flag %d", ErrBadEncoding, hasMint)
	}
	if tx.PubKey, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("tx pubkey: %w", err)
	}
	if tx.Sig, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("tx sig: %w", err)
	}
	return tx, nil
}

// EncodeTransactions encodes a slice of transactions as a list.
func EncodeTransactions(txs []*Transaction) []byte {
	e := GetEncoder()
	defer PutEncoder(e)
	e.BeginList(len(txs))
	for _, tx := range txs {
		tx.Encode(e)
	}
	return e.CopyBytes()
}

// DecodeTransactions decodes a slice written by EncodeTransactions.
func DecodeTransactions(b []byte) ([]*Transaction, error) {
	d := NewDecoder(b)
	n, err := d.ReadList()
	if err != nil {
		return nil, err
	}
	txs := make([]*Transaction, n)
	for i := range txs {
		if txs[i], err = DecodeTransaction(d); err != nil {
			return nil, fmt.Errorf("tx %d: %w", i, err)
		}
	}
	return txs, nil
}
