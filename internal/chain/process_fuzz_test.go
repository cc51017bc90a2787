package chain

// Randomized block bodies checked against a ledger model. Whatever the mix
// of valid, reverting and invalid transactions, one execution of a body
// must conserve supply, advance every sender's nonce by exactly its applied
// transactions, and agree with the producer's dry-run in BuildBlock.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"contractshard/internal/contract"
	"contractshard/internal/crypto"
	"contractshard/internal/state"
	"contractshard/internal/types"
)

const fuzzTrials = 25

// fuzzConfig lifts the block limits so every generated body fits.
func fuzzConfig() Config {
	cfg := testConfig(1)
	cfg.MaxBlockTxs = 1 << 16
	cfg.GasLimit = math.MaxUint64
	return cfg
}

func totalBalance(st *state.State) uint64 {
	var sum uint64
	for _, a := range st.Accounts() {
		sum += st.GetBalance(a)
	}
	return sum
}

// checkLedger checks process's receipts and post-state for txs against the
// ledger model:
//   - supply: the post-state holds the pre-state's total plus BlockReward,
//     minus the value of successful burns, plus that of successful mints;
//   - nonces: every sender's nonce grew by its count of non-invalid
//     receipts (mints bump no nonce).
//
// It then builds a block from the same candidates on c's head and adds it:
// the producer's snapshot/revert dry-run must include exactly the
// transactions process applied and reach the state root the validator
// re-executes to.
func checkLedger(t *testing.T, c *Chain, pre, post *state.State, coinbase types.Address, txs []*types.Transaction, rs []*types.Receipt) {
	t.Helper()
	if len(rs) != len(txs) {
		t.Fatalf("%d receipts for %d txs", len(rs), len(txs))
	}
	want := totalBalance(pre) + c.cfg.BlockReward
	applied := make(map[types.Address]uint64)
	var senders []types.Address
	valid := 0
	for i, tx := range txs {
		ok := rs[i].Status != types.ReceiptInvalid
		if ok {
			valid++
		}
		if tx.Kind == types.TxXShardMint {
			if ok {
				want += tx.Value
			}
			continue
		}
		if _, seen := applied[tx.From]; !seen {
			senders = append(senders, tx.From)
			applied[tx.From] = 0
		}
		if !ok {
			continue
		}
		applied[tx.From]++
		if tx.Kind == types.TxXShardBurn {
			want -= tx.Value
		}
	}
	if got := totalBalance(post); got != want {
		t.Fatalf("supply: post-state holds %d, ledger model wants %d", got, want)
	}
	for _, from := range senders {
		if got, want := post.GetNonce(from), pre.GetNonce(from)+applied[from]; got != want {
			t.Fatalf("sender %s: nonce %d, want %d (%d applied)", from, got, want, applied[from])
		}
	}

	blk, _, err := c.BuildBlock(coinbase, txs, c.Head().Header.Time+1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Txs) != valid {
		t.Fatalf("BuildBlock included %d txs, process applied %d", len(blk.Txs), valid)
	}
	if err := c.AddBlock(blk); err != nil {
		t.Fatalf("validator rejected the producer's block: %v", err)
	}
	if blk.Header.StateRoot != post.Root() {
		t.Fatalf("built block root %s, process root %s", blk.Header.StateRoot, post.Root())
	}
}

// TestProcessDifferentialFuzz runs random transaction mixes through process
// and checks each result against the ledger model (checkLedger). Each trial
// varies the signers, the coinbase (sometimes itself a signer, so fee
// credits land on an account that also pays fees and values), and the
// transaction blend: plain transfers, storage-hotspot contract calls,
// branchy conditional transfers, wrong-nonce and value+fee-wraparound
// invalids.
func TestProcessDifferentialFuzz(t *testing.T) {
	counterAddr := types.BytesToAddress([]byte{0xEE})
	condAddr := types.BytesToAddress([]byte{0xEF})
	sinkAddr := types.BytesToAddress([]byte{0xED})

	for trial := 0; trial < fuzzTrials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))

			signers := make([]*crypto.Keypair, 6)
			alloc := make(map[types.Address]uint64)
			for i := range signers {
				signers[i] = crypto.KeypairFromSeed(fmt.Sprintf("fuzz-%d-%d", trial, i))
				alloc[signers[i].Address()] = 1_000_000
			}
			// The conditional-transfer contract needs escrow to forward and
			// the threshold decides how often it reverts.
			alloc[condAddr] = 10_000
			coinbase := types.BytesToAddress([]byte{0xA1})
			if trial%3 == 0 {
				// A signer that mines its own fees.
				coinbase = signers[0].Address()
			}
			code := map[types.Address][]byte{
				counterAddr: contract.CounterContract(),
				condAddr:    contract.ConditionalTransfer(sinkAddr, uint64(200+rng.Intn(400))),
			}

			c, err := NewWithContracts(fuzzConfig(), alloc, code)
			if err != nil {
				t.Fatal(err)
			}

			nonces := make(map[types.Address]uint64)
			n := 20 + rng.Intn(60)
			txs := make([]*types.Transaction, 0, n)
			for i := 0; i < n; i++ {
				from := signers[rng.Intn(len(signers))]
				tx := &types.Transaction{
					Nonce: nonces[from.Address()],
					From:  from.Address(),
					Fee:   uint64(1 + rng.Intn(5)),
				}
				bump := true
				switch k := rng.Intn(10); {
				case k < 4: // plain transfer, sometimes to another signer or the coinbase
					switch rng.Intn(3) {
					case 0:
						tx.To = signers[rng.Intn(len(signers))].Address()
					case 1:
						tx.To = coinbase
					default:
						tx.To = types.BytesToAddress([]byte{byte(0x40 + rng.Intn(8))})
					}
					tx.Value = uint64(rng.Intn(500))
				case k < 6: // storage hotspot: every call bumps the same slot
					tx.To = counterAddr
					tx.Value = uint64(rng.Intn(10))
				case k < 8: // branchy: reverts once the sink fills past the threshold
					tx.To = condAddr
					tx.Value = uint64(1 + rng.Intn(50))
				case k < 9: // wrong nonce: invalid, state nonce must not move
					tx.To = sinkAddr
					tx.Nonce += 1000
					bump = false
				default: // value+fee wraps uint64: the solvency-overflow regression
					tx.To = sinkAddr
					tx.Value = math.MaxUint64 - uint64(rng.Intn(3))
					tx.Fee = uint64(1000 + rng.Intn(1000))
					bump = false
				}
				if err := crypto.SignTx(tx, from); err != nil {
					t.Fatal(err)
				}
				if bump {
					nonces[from.Address()]++
				}
				txs = append(txs, tx)
			}

			pre, st := c.HeadState(), c.HeadState()
			rs, _, err := c.process(st, txs, coinbase)
			if err != nil {
				t.Fatal(err)
			}
			checkLedger(t, c, pre, st, coinbase, txs, rs)
		})
	}
}
