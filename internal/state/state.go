// Package state implements the account state database: balances, nonces,
// contract code and contract storage, with snapshot/revert journaling and a
// Merkle Patricia commitment for block headers.
//
// Each shard ledger owns one State covering exactly the accounts its shard
// touches; only MaxShard miners hold the full system state (Sec. III-A).
package state

import (
	"errors"
	"fmt"
	"sort"

	"contractshard/internal/crypto"
	"contractshard/internal/trie"
	"contractshard/internal/types"
)

// Errors returned by state mutations.
var (
	ErrInsufficientBalance = errors.New("state: insufficient balance")
	ErrBalanceOverflow     = errors.New("state: balance overflow")
	ErrBadSnapshot         = errors.New("state: unknown or stale snapshot")
)

type account struct {
	balance uint64
	nonce   uint64
	code    []byte
	storage map[string][]byte
}

func (a *account) empty() bool {
	return a.balance == 0 && a.nonce == 0 && len(a.code) == 0 && len(a.storage) == 0
}

// State is the mutable account database. It is not safe for concurrent use;
// each miner owns its state copies.
type State struct {
	accounts map[types.Address]*account
	journal  []journalEntry
	rootOK   bool
	root     types.Hash
}

// journalEntry undoes one mutation.
type journalEntry struct {
	addr types.Address
	kind journalKind
	// previous values; interpretation depends on kind
	prevU64   uint64
	prevBytes []byte
	slot      string
	created   bool
}

type journalKind uint8

const (
	jBalance journalKind = iota
	jNonce
	jCode
	jStorage
)

// New returns an empty state.
func New() *State {
	return &State{accounts: make(map[types.Address]*account)}
}

func (s *State) dirty() { s.rootOK = false }

// getOrNew fetches the account, creating it (and journaling the creation
// implicitly through the first mutation's previous-zero values) on demand.
func (s *State) getOrNew(addr types.Address) (*account, bool) {
	a, ok := s.accounts[addr]
	if !ok {
		a = &account{}
		s.accounts[addr] = a
	}
	return a, !ok
}

// Exists reports whether the address has any state.
func (s *State) Exists(addr types.Address) bool {
	a, ok := s.accounts[addr]
	return ok && !a.empty()
}

// GetBalance returns the account balance (0 for absent accounts).
func (s *State) GetBalance(addr types.Address) uint64 {
	if a, ok := s.accounts[addr]; ok {
		return a.balance
	}
	return 0
}

// AddBalance credits amount to addr.
func (s *State) AddBalance(addr types.Address, amount uint64) error {
	a, created := s.getOrNew(addr)
	if a.balance+amount < a.balance {
		return fmt.Errorf("%w: %s + %d", ErrBalanceOverflow, addr, amount)
	}
	s.journal = append(s.journal, journalEntry{addr: addr, kind: jBalance, prevU64: a.balance, created: created})
	a.balance += amount
	s.dirty()
	return nil
}

// SubBalance debits amount from addr, failing if the balance is too low.
func (s *State) SubBalance(addr types.Address, amount uint64) error {
	a, created := s.getOrNew(addr)
	if a.balance < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientBalance, addr, a.balance, amount)
	}
	s.journal = append(s.journal, journalEntry{addr: addr, kind: jBalance, prevU64: a.balance, created: created})
	a.balance -= amount
	s.dirty()
	return nil
}

// Transfer moves amount from one account to another atomically.
func (s *State) Transfer(from, to types.Address, amount uint64) error {
	if err := s.SubBalance(from, amount); err != nil {
		return err
	}
	if err := s.AddBalance(to, amount); err != nil {
		// Roll the debit back so Transfer is all-or-nothing.
		s.undo(1)
		return err
	}
	return nil
}

// GetNonce returns the account's transaction count.
func (s *State) GetNonce(addr types.Address) uint64 {
	if a, ok := s.accounts[addr]; ok {
		return a.nonce
	}
	return 0
}

// SetNonce sets the account's transaction count.
func (s *State) SetNonce(addr types.Address, nonce uint64) {
	a, created := s.getOrNew(addr)
	s.journal = append(s.journal, journalEntry{addr: addr, kind: jNonce, prevU64: a.nonce, created: created})
	a.nonce = nonce
	s.dirty()
}

// GetCode returns the contract code stored at addr, nil for user accounts.
func (s *State) GetCode(addr types.Address) []byte {
	if a, ok := s.accounts[addr]; ok {
		return a.code
	}
	return nil
}

// SetCode installs contract code at addr.
func (s *State) SetCode(addr types.Address, code []byte) {
	a, created := s.getOrNew(addr)
	s.journal = append(s.journal, journalEntry{addr: addr, kind: jCode, prevBytes: a.code, created: created})
	a.code = append([]byte(nil), code...)
	s.dirty()
}

// IsContract reports whether addr holds code.
func (s *State) IsContract(addr types.Address) bool {
	return len(s.GetCode(addr)) > 0
}

// GetStorage reads a contract storage slot; nil when unset. The returned
// slice is a defensive copy: the internal slice must never escape, because a
// caller mutating it would rewrite committed state behind the journal's back
// (no undo entry, stale memoized root).
func (s *State) GetStorage(addr types.Address, slot []byte) []byte {
	if a, ok := s.accounts[addr]; ok && a.storage != nil {
		if v, ok := a.storage[string(slot)]; ok {
			return append([]byte(nil), v...)
		}
	}
	return nil
}

// SetStorage writes a contract storage slot; an empty value clears the slot.
func (s *State) SetStorage(addr types.Address, slot, value []byte) {
	a, created := s.getOrNew(addr)
	if a.storage == nil {
		a.storage = make(map[string][]byte)
	}
	key := string(slot)
	s.journal = append(s.journal, journalEntry{
		addr: addr, kind: jStorage, slot: key, prevBytes: a.storage[key], created: created,
	})
	if len(value) == 0 {
		delete(a.storage, key)
	} else {
		a.storage[key] = append([]byte(nil), value...)
	}
	s.dirty()
}

// Snapshot returns a revision token for RevertToSnapshot.
func (s *State) Snapshot() int { return len(s.journal) }

// RevertToSnapshot undoes every mutation made after the snapshot was taken.
func (s *State) RevertToSnapshot(rev int) error {
	if rev < 0 || rev > len(s.journal) {
		return fmt.Errorf("%w: %d (journal %d)", ErrBadSnapshot, rev, len(s.journal))
	}
	s.undo(len(s.journal) - rev)
	return nil
}

func (s *State) undo(n int) {
	for i := 0; i < n; i++ {
		e := s.journal[len(s.journal)-1]
		s.journal = s.journal[:len(s.journal)-1]
		a := s.accounts[e.addr]
		switch e.kind {
		case jBalance:
			a.balance = e.prevU64
		case jNonce:
			a.nonce = e.prevU64
		case jCode:
			a.code = e.prevBytes
		case jStorage:
			if len(e.prevBytes) == 0 {
				delete(a.storage, e.slot)
			} else {
				a.storage[e.slot] = e.prevBytes
			}
		}
		if e.created {
			delete(s.accounts, e.addr)
		}
	}
	s.dirty()
}

// DiscardJournal drops undo history, typically after a block commits. Earlier
// snapshots become invalid.
func (s *State) DiscardJournal() { s.journal = s.journal[:0] }

// Root returns the Merkle commitment to the full state. Account entries are
// stored in the trie under 'a'||addr and storage slots under 's'||addr||slot,
// so the commitment covers balances, nonces, code and storage.
func (s *State) Root() types.Hash {
	if s.rootOK {
		return s.root
	}
	var tr trie.Trie
	//shardlint:ordered trie commitment is insertion-order independent (trie_test.go proves it)
	for addr, a := range s.accounts {
		if a.empty() {
			continue
		}
		e := types.NewEncoder()
		e.WriteUint64(a.balance)
		e.WriteUint64(a.nonce)
		e.WriteHash(crypto.HashBytes(a.code))
		e.WriteBytes(nil) // reserved
		tr.Put(append([]byte{'a'}, addr[:]...), e.Bytes())
		//shardlint:ordered trie commitment is insertion-order independent (trie_test.go proves it)
		for slot, val := range a.storage {
			k := append([]byte{'s'}, addr[:]...)
			k = append(k, slot...)
			tr.Put(k, val)
		}
	}
	s.root = tr.Hash()
	s.rootOK = true
	return s.root
}

// Copy returns a deep copy with an empty journal.
func (s *State) Copy() *State {
	out := New()
	//shardlint:ordered map-to-map deep copy; per-key writes commute
	for addr, a := range s.accounts {
		na := &account{balance: a.balance, nonce: a.nonce}
		if a.code != nil {
			na.code = append([]byte(nil), a.code...)
		}
		if len(a.storage) > 0 {
			na.storage = make(map[string][]byte, len(a.storage))
			//shardlint:ordered map-to-map deep copy; per-key writes commute
			for k, v := range a.storage {
				na.storage[k] = append([]byte(nil), v...)
			}
		}
		out.accounts[addr] = na
	}
	return out
}

// Accounts returns the addresses with live state in sorted order.
func (s *State) Accounts() []types.Address {
	addrs := make([]types.Address, 0, len(s.accounts))
	for addr, a := range s.accounts {
		if !a.empty() {
			addrs = append(addrs, addr)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	return addrs
}
