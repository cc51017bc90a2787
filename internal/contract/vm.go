// Package contract implements the smart contract virtual machine: a small
// gas-metered stack machine in the spirit of the EVM, sufficient for the
// contract patterns the paper exercises — unconditional transfers to a fixed
// destination (the evaluation workload, Sec. VI-A) and conditional transfers
// such as "send 2 ETH to B if B's balance is below 1 ETH" (Sec. II-A).
//
// Words are 32 bytes; arithmetic interprets the low 8 bytes as an unsigned
// integer, which matches the uint64 value model of the rest of the system.
package contract

import (
	"encoding/binary"
	"errors"
	"fmt"

	"contractshard/internal/types"
)

// Op is a VM opcode.
type Op byte

// Opcodes. PUSH carries a one-byte length followed by that many immediate
// bytes, right-aligned into the word.
const (
	STOP Op = iota
	PUSH
	POP
	DUP
	SWAP
	ADD
	SUB
	MUL
	DIV
	MOD
	LT
	GT
	EQ
	ISZERO
	AND
	OR
	NOT
	JUMP
	JUMPI
	CALLER
	CALLVALUE
	CALLDATALOAD
	CALLDATASIZE
	BALANCE
	SELFBALANCE
	ADDRESS
	SLOAD
	SSTORE
	TRANSFER
	REVERT
	opCount // sentinel
)

var opNames = [...]string{
	"STOP", "PUSH", "POP", "DUP", "SWAP", "ADD", "SUB", "MUL", "DIV", "MOD",
	"LT", "GT", "EQ", "ISZERO", "AND", "OR", "NOT", "JUMP", "JUMPI",
	"CALLER", "CALLVALUE", "CALLDATALOAD", "CALLDATASIZE", "BALANCE",
	"SELFBALANCE", "ADDRESS", "SLOAD", "SSTORE", "TRANSFER", "REVERT",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("INVALID(0x%02x)", byte(o))
}

// Per-opcode gas cost. Storage writes are priced above everything else, as
// in the EVM.
func gasCost(o Op) uint64 {
	switch o {
	case SSTORE:
		return 100
	case SLOAD, BALANCE, SELFBALANCE:
		return 20
	case TRANSFER:
		return 50
	default:
		return 1
	}
}

// Execution errors.
var (
	ErrOutOfGas       = errors.New("contract: out of gas")
	ErrStackUnderflow = errors.New("contract: stack underflow")
	ErrStackOverflow  = errors.New("contract: stack overflow")
	ErrBadJump        = errors.New("contract: jump destination out of range")
	ErrBadOpcode      = errors.New("contract: invalid opcode")
	ErrTruncatedPush  = errors.New("contract: truncated push immediate")
	ErrReverted       = errors.New("contract: execution reverted")
)

const maxStack = 256

// Word is a 32-byte VM stack word.
type Word [32]byte

// U64 interprets the low 8 bytes of the word as an unsigned integer.
func (w Word) U64() uint64 { return binary.BigEndian.Uint64(w[24:]) }

// Addr interprets the low 20 bytes of the word as an address.
func (w Word) Addr() types.Address { return types.BytesToAddress(w[12:]) }

// WordFromU64 builds a word holding v.
func WordFromU64(v uint64) Word {
	var w Word
	binary.BigEndian.PutUint64(w[24:], v)
	return w
}

// WordFromAddr builds a word holding a.
func WordFromAddr(a types.Address) Word {
	var w Word
	copy(w[12:], a[:])
	return w
}

// WordFromBool builds 1 or 0.
func WordFromBool(b bool) Word {
	if b {
		return WordFromU64(1)
	}
	return Word{}
}

// IsZero reports whether the word is all zero.
func (w Word) IsZero() bool { return w == Word{} }

// Bytes returns the word as a 32-byte slice.
func (w Word) Bytes() []byte { return w[:] }

// StateDB is the ledger surface the VM reads and mutates. *state.State
// implements it; the interface keeps this package independent of
// internal/state.
type StateDB interface {
	GetBalance(addr types.Address) uint64
	Transfer(from, to types.Address, amount uint64) error
	GetStorage(addr types.Address, slot []byte) []byte
	SetStorage(addr types.Address, slot, value []byte)
}

// Context carries the execution environment of one contract call.
type Context struct {
	State    StateDB       // the ledger state being mutated
	Contract types.Address // the contract account executing
	Caller   types.Address // the transaction sender
	Value    uint64        // value the call escrowed to the contract
	Data     []byte        // call data
	Gas      uint64        // gas budget
}

// Result reports the outcome of a call.
type Result struct {
	GasUsed  uint64
	Reverted bool
}

// Execute runs the contract code at ctx.Contract. The caller (the chain's
// transaction processor) is responsible for escrow crediting and for
// snapshotting state so a revert or error can be rolled back.
func Execute(ctx *Context, code []byte) (*Result, error) {
	res := &Result{}
	var stack []Word
	gas := ctx.Gas

	use := func(n uint64) error {
		if gas < n {
			gas = 0
			res.GasUsed = ctx.Gas
			return ErrOutOfGas
		}
		gas -= n
		return nil
	}
	pop := func() (Word, error) {
		if len(stack) == 0 {
			return Word{}, ErrStackUnderflow
		}
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return w, nil
	}
	push := func(w Word) error {
		if len(stack) >= maxStack {
			return ErrStackOverflow
		}
		stack = append(stack, w)
		return nil
	}
	pop2 := func() (Word, Word, error) {
		b, err := pop()
		if err != nil {
			return Word{}, Word{}, err
		}
		a, err := pop()
		if err != nil {
			return Word{}, Word{}, err
		}
		return a, b, nil
	}
	done := func(err error) (*Result, error) {
		//shardlint:ovflow gas starts at ctx.Gas and only decreases (every charge is bounds-checked by use), so the spent difference cannot underflow
		res.GasUsed = ctx.Gas - gas
		return res, err
	}

	pc := 0
	for pc < len(code) {
		op := Op(code[pc])
		if op >= opCount {
			return done(fmt.Errorf("%w: 0x%02x at pc %d", ErrBadOpcode, byte(op), pc))
		}
		if err := use(gasCost(op)); err != nil {
			return done(err)
		}
		pc++
		switch op {
		case STOP:
			return done(nil)
		case PUSH:
			if pc >= len(code) {
				return done(ErrTruncatedPush)
			}
			n := int(code[pc])
			pc++
			if n > 32 || pc+n > len(code) {
				return done(ErrTruncatedPush)
			}
			var w Word
			copy(w[32-n:], code[pc:pc+n])
			pc += n
			if err := push(w); err != nil {
				return done(err)
			}
		case POP:
			if _, err := pop(); err != nil {
				return done(err)
			}
		case DUP:
			if len(stack) == 0 {
				return done(ErrStackUnderflow)
			}
			if err := push(stack[len(stack)-1]); err != nil {
				return done(err)
			}
		case SWAP:
			if len(stack) < 2 {
				return done(ErrStackUnderflow)
			}
			stack[len(stack)-1], stack[len(stack)-2] = stack[len(stack)-2], stack[len(stack)-1]
		case ADD, SUB, MUL, DIV, MOD, LT, GT, EQ, AND, OR:
			a, b, err := pop2()
			if err != nil {
				return done(err)
			}
			var out Word
			switch op {
			case ADD:
				out = WordFromU64(a.U64() + b.U64())
			case SUB:
				out = WordFromU64(a.U64() - b.U64())
			case MUL:
				out = WordFromU64(a.U64() * b.U64())
			case DIV:
				if b.U64() == 0 {
					out = Word{}
				} else {
					out = WordFromU64(a.U64() / b.U64())
				}
			case MOD:
				if b.U64() == 0 {
					out = Word{}
				} else {
					out = WordFromU64(a.U64() % b.U64())
				}
			case LT:
				out = WordFromBool(a.U64() < b.U64())
			case GT:
				out = WordFromBool(a.U64() > b.U64())
			case EQ:
				out = WordFromBool(a == b)
			case AND:
				out = WordFromBool(!a.IsZero() && !b.IsZero())
			case OR:
				out = WordFromBool(!a.IsZero() || !b.IsZero())
			}
			if err := push(out); err != nil {
				return done(err)
			}
		case ISZERO, NOT:
			a, err := pop()
			if err != nil {
				return done(err)
			}
			if err := push(WordFromBool(a.IsZero())); err != nil {
				return done(err)
			}
		case JUMP:
			dest, err := pop()
			if err != nil {
				return done(err)
			}
			d := dest.U64()
			// d == len(code) is out of range too: landing one past the end
			// would fall out of the loop as a silent STOP, turning a
			// corrupted destination into a successful call.
			if d >= uint64(len(code)) {
				return done(fmt.Errorf("%w: %d", ErrBadJump, d))
			}
			pc = int(d)
		case JUMPI:
			dest, cond, err := func() (Word, Word, error) {
				c, err := pop()
				if err != nil {
					return Word{}, Word{}, err
				}
				d, err := pop()
				return d, c, err
			}()
			if err != nil {
				return done(err)
			}
			if !cond.IsZero() {
				d := dest.U64()
				if d >= uint64(len(code)) {
					return done(fmt.Errorf("%w: %d", ErrBadJump, d))
				}
				pc = int(d)
			}
		case CALLER:
			if err := push(WordFromAddr(ctx.Caller)); err != nil {
				return done(err)
			}
		case CALLVALUE:
			if err := push(WordFromU64(ctx.Value)); err != nil {
				return done(err)
			}
		case CALLDATALOAD:
			off, err := pop()
			if err != nil {
				return done(err)
			}
			// Bytes past the end of calldata read as zero. The offset is
			// compared before any addition: o+i would wrap for offsets near
			// 2^64 and read real calldata where the semantics require zeros.
			var w Word
			if o := off.U64(); o < uint64(len(ctx.Data)) {
				copy(w[:], ctx.Data[o:])
			}
			if err := push(w); err != nil {
				return done(err)
			}
		case CALLDATASIZE:
			if err := push(WordFromU64(uint64(len(ctx.Data)))); err != nil {
				return done(err)
			}
		case BALANCE:
			a, err := pop()
			if err != nil {
				return done(err)
			}
			if err := push(WordFromU64(ctx.State.GetBalance(a.Addr()))); err != nil {
				return done(err)
			}
		case SELFBALANCE:
			if err := push(WordFromU64(ctx.State.GetBalance(ctx.Contract))); err != nil {
				return done(err)
			}
		case ADDRESS:
			if err := push(WordFromAddr(ctx.Contract)); err != nil {
				return done(err)
			}
		case SLOAD:
			k, err := pop()
			if err != nil {
				return done(err)
			}
			var w Word
			v := ctx.State.GetStorage(ctx.Contract, k[:])
			if len(v) > 32 {
				v = v[:32]
			}
			copy(w[32-len(v):], v)
			if err := push(w); err != nil {
				return done(err)
			}
		case SSTORE:
			k, v, err := pop2()
			if err != nil {
				return done(err)
			}
			if v.IsZero() {
				ctx.State.SetStorage(ctx.Contract, k[:], nil)
			} else {
				ctx.State.SetStorage(ctx.Contract, k[:], v[:])
			}
		case TRANSFER:
			to, amount, err := pop2()
			if err != nil {
				return done(err)
			}
			if err := ctx.State.Transfer(ctx.Contract, to.Addr(), amount.U64()); err != nil {
				// Insufficient contract balance reverts rather than aborts,
				// mirroring a failed EVM CALL.
				res.Reverted = true
				return done(fmt.Errorf("%w: %v", ErrReverted, err))
			}
		case REVERT:
			res.Reverted = true
			return done(ErrReverted)
		}
	}
	return done(nil)
}
