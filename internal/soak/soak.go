// Package soak drives a deterministic multi-shard load run against the real
// stack — chain, mempool, exec, xshard relay — at account counts far beyond
// what unit tests touch. It is the library behind cmd/shardload: seed up to
// a million funded accounts across 32+ shards, replay Zipf-skewed transfer
// and hot-contract streams (internal/workload), push cross-shard value
// around the ring through burns and relayed mints (internal/xshard), and
// report per-phase throughput, block-build latency percentiles
// (internal/metrics) and allocation statistics.
//
// Every consensus input is derived from the Config seed — key material,
// sender draws, fees, block timestamps (head time + 1s, never the wall
// clock) — so two runs with the same Config finish with bit-identical
// per-shard state roots. The smoke test in this package pins that.
package soak

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"contractshard/internal/chain"
	"contractshard/internal/contract"
	"contractshard/internal/crypto"
	"contractshard/internal/mempool"
	"contractshard/internal/metrics"
	"contractshard/internal/types"
	"contractshard/internal/workload"
	"contractshard/internal/xshard"
)

// Config shapes one soak run. The zero value is not runnable; use
// DefaultConfig or fill Accounts and Shards at minimum.
type Config struct {
	// Accounts is the total number of funded accounts, split evenly over
	// the shards (remainder to the low shards).
	Accounts int
	// Shards is the number of independent shard chains.
	Shards int
	// Rounds is the number of Zipf-transfer blocks mined per shard.
	Rounds int
	// HotRounds is the number of hot-contract blocks mined per shard:
	// every transaction in these rounds calls the shard's counter
	// contract, concentrating state writes on one account.
	HotRounds int
	// TxsPerBlock is both the injection rate per round and MaxBlockTxs.
	TxsPerBlock int
	// XShardRounds is the number of burn-injection rounds of the
	// cross-shard phase; the phase then keeps mining until every relayed
	// mint is confirmed on its destination shard.
	XShardRounds int
	// BurnsPerRound is the number of cross-shard burns each shard injects
	// per xshard round (capped at TxsPerBlock).
	BurnsPerRound int
	// Finality is the xshard header-book finality depth.
	Finality uint64
	// Seed derives every random stream and every account key.
	Seed int64
	// ZipfS is the sender-popularity skew (<=1 selects the 1.2 default).
	ZipfS float64
	// FeeMax caps per-sender fees (defaults to 100).
	FeeMax int
	// StateHistory bounds resident post-states per shard (defaults to 4;
	// a million-account run cannot keep a state copy per block).
	StateHistory int
	// Log, when set, receives progress lines during the run.
	Log io.Writer
}

// DefaultConfig is the acceptance-scale run: a million accounts over 32
// shards. The smoke test shrinks it by two orders of magnitude.
func DefaultConfig() Config {
	return Config{
		Accounts:      1_000_000,
		Shards:        32,
		Rounds:        8,
		HotRounds:     4,
		TxsPerBlock:   200,
		XShardRounds:  4,
		BurnsPerRound: 32,
		Finality:      2,
		Seed:          1,
		ZipfS:         1.2,
		FeeMax:        100,
		StateHistory:  4,
	}
}

func (c *Config) withDefaults() error {
	if c.Accounts <= 0 || c.Shards <= 0 {
		return errors.New("soak: needs positive Accounts and Shards")
	}
	if c.Accounts < c.Shards {
		return fmt.Errorf("soak: %d accounts cannot cover %d shards", c.Accounts, c.Shards)
	}
	if c.TxsPerBlock <= 0 {
		c.TxsPerBlock = 100
	}
	if c.Rounds < 0 || c.HotRounds < 0 || c.XShardRounds < 0 {
		return errors.New("soak: negative round count")
	}
	if c.BurnsPerRound <= 0 {
		c.BurnsPerRound = 8
	}
	if c.BurnsPerRound > c.TxsPerBlock {
		c.BurnsPerRound = c.TxsPerBlock
	}
	if c.Finality == 0 {
		c.Finality = 2
	}
	if c.FeeMax <= 0 {
		c.FeeMax = 100
	}
	if c.StateHistory <= 0 {
		c.StateHistory = 4
	}
	return nil
}

// accountBalance funds each account far beyond what any phase can spend:
// the hottest Zipf sender can author at most (Rounds+HotRounds+XShardRounds)
// × TxsPerBlock transactions of value 1 and fee ≤ FeeMax.
const accountBalance = 1 << 26

// Phase is the report of one load phase.
type Phase struct {
	Name    string
	Blocks  int
	Txs     int
	Seconds float64
	// TPS is confirmed transactions per wall-clock second.
	TPS float64
	// P50/P95/P99/Max are per-block build+verify+link latencies in ms.
	P50, P95, P99, Max float64
}

// ShardState is one shard's final ledger summary.
type ShardState struct {
	ID         types.ShardID
	Height     uint64
	Root       types.Hash
	HotCounter uint64
}

// Result is the full report of a run.
type Result struct {
	Accounts, Shards             int
	KeygenSeconds                float64
	GenesisSeconds               float64
	TotalSeconds                 float64
	Phases                       []Phase
	States                       []ShardState
	BurnsSent, MintsConfirmed    int
	VerifyHits, VerifyMisses     uint64
	AllocBytes, Mallocs, HeapUse uint64
}

// StateRoots returns the final per-shard state roots in shard order — the
// determinism fingerprint two identically-configured runs must share.
func (r *Result) StateRoots() []types.Hash {
	roots := make([]types.Hash, len(r.States))
	for i, s := range r.States {
		roots[i] = s.Root
	}
	return roots
}

// shardRun is one shard's live machinery during the run.
type shardRun struct {
	id       types.ShardID
	ch       *chain.Chain
	pool     *mempool.Pool
	book     *xshard.HeaderBook
	relay    *xshard.Relay
	rng      *rand.Rand
	zipf     func() int
	keys     []*crypto.Keypair
	addrs    []types.Address
	nonces   []uint64
	coinbase types.Address
	hotAddr  types.Address
	hotCalls uint64
}

// Run executes the soak and returns its report. Errors abort the run; a
// clean return means every injected transaction was confirmed, every burn
// was minted exactly once on its destination shard, and every hot-contract
// call is visible in the counter's storage.
func Run(cfg Config) (*Result, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	hits0, misses0 := crypto.DefaultVerifyCacheStats()
	t0 := time.Now()

	res := &Result{Accounts: cfg.Accounts, Shards: cfg.Shards}

	// --- Key material: one deterministic keypair per account, generated in
	// parallel (ed25519 keygen dominates setup at a million accounts).
	perShard := workload.SplitUniform(cfg.Accounts, cfg.Shards)
	shards := make([]*shardRun, cfg.Shards)
	tKeys := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < cfg.Shards; s++ {
		sr := &shardRun{
			id:       types.ShardID(s + 1),
			keys:     make([]*crypto.Keypair, perShard[s]),
			addrs:    make([]types.Address, perShard[s]),
			nonces:   make([]uint64, perShard[s]),
			coinbase: types.BytesToAddress([]byte{0xEE, byte(s >> 8), byte(s)}),
			hotAddr:  types.BytesToAddress([]byte{0xC0, 0xFF, byte(s >> 8), byte(s)}),
		}
		shards[s] = sr
		workers := runtime.GOMAXPROCS(0)
		if workers > perShard[s] && perShard[s] > 0 {
			workers = perShard[s]
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sr *shardRun, shard, w, stride int) {
				defer wg.Done()
				for i := w; i < len(sr.keys); i += stride {
					k := crypto.KeypairFromSeed(fmt.Sprintf("soak/%d/%d", shard, i))
					sr.keys[i] = k
					sr.addrs[i] = k.Address()
				}
			}(sr, s+1, w, workers)
		}
	}
	wg.Wait()
	res.KeygenSeconds = time.Since(tKeys).Seconds()
	logf("keygen: %d accounts in %.2fs", cfg.Accounts, res.KeygenSeconds)

	// --- Genesis: one chain per shard with every local account funded and
	// the shard's hot counter contract installed.
	tGen := time.Now()
	for s, sr := range shards {
		ccfg := chain.DefaultConfig(sr.id)
		ccfg.Difficulty = 16
		ccfg.MaxBlockTxs = cfg.TxsPerBlock
		ccfg.StateHistory = cfg.StateHistory
		sr.book = xshard.NewHeaderBook(cfg.Finality, nil)
		ccfg.XShard = sr.book
		alloc := make(map[types.Address]uint64, len(sr.addrs))
		for _, a := range sr.addrs {
			alloc[a] = accountBalance
		}
		ch, err := chain.NewWithContracts(ccfg, alloc, map[types.Address][]byte{
			sr.hotAddr: contract.CounterContract(),
		})
		if err != nil {
			return nil, fmt.Errorf("soak: shard %d genesis: %w", sr.id, err)
		}
		sr.ch = ch
		sr.pool = mempool.New(0)
		sr.rng = rand.New(rand.NewSource(cfg.Seed + int64(s)*1_000_003 + 17))
		sr.zipf, err = workload.ZipfIndices(sr.rng, len(sr.keys), cfg.ZipfS)
		if err != nil {
			return nil, fmt.Errorf("soak: shard %d zipf: %w", sr.id, err)
		}
	}
	res.GenesisSeconds = time.Since(tGen).Seconds()
	logf("genesis: %d shards in %.2fs", cfg.Shards, res.GenesisSeconds)

	// --- Cross-shard ring wiring: shard s relays its burns to shard s+1.
	// The relay announces finalized headers into the destination's book and
	// submits mint candidates into the destination's mempool; delivery is
	// at-least-once, so duplicate submissions are tolerated here.
	for s, sr := range shards {
		dst := shards[(s+1)%cfg.Shards]
		sr.relay = xshard.NewRelay(sr.ch, cfg.Finality)
		sr.relay.AddDestination(&xshard.Destination{
			Shards:   []types.ShardID{dst.id},
			Announce: dst.book.Add,
			Submit: func(tx *types.Transaction) error {
				err := dst.pool.Add(tx)
				if err != nil && !errors.Is(err, mempool.ErrKnownTx) && !errors.Is(err, mempool.ErrUnderpriced) {
					return err
				}
				return nil
			},
		})
	}

	// --- Phase 1: Zipf transfers.
	if cfg.Rounds > 0 {
		ph, err := runInjectionPhase("zipf-transfers", cfg.Rounds, shards, func(sr *shardRun) (*types.Transaction, error) {
			si := sr.zipf()
			ri := sr.rng.Intn(len(sr.addrs))
			if ri == si {
				ri = (ri + 1) % len(sr.addrs)
			}
			return sr.signedTx(si, sr.addrs[ri], cfg.FeeMax)
		})
		if err != nil {
			return nil, err
		}
		res.Phases = append(res.Phases, *ph)
		logf("phase %s: %d blocks, %d txs, %.1f tx/s", ph.Name, ph.Blocks, ph.Txs, ph.TPS)
	}

	// --- Phase 2: hot-contract calls. Every transaction invokes the
	// shard's counter contract, serializing writes on one account.
	if cfg.HotRounds > 0 {
		ph, err := runInjectionPhase("hot-contract", cfg.HotRounds, shards, func(sr *shardRun) (*types.Transaction, error) {
			tx, err := sr.signedTx(sr.zipf(), sr.hotAddr, cfg.FeeMax)
			if err == nil {
				sr.hotCalls++
			}
			return tx, err
		})
		if err != nil {
			return nil, err
		}
		res.Phases = append(res.Phases, *ph)
		logf("phase %s: %d blocks, %d txs, %.1f tx/s", ph.Name, ph.Blocks, ph.Txs, ph.TPS)
	}

	// --- Phase 3: cross-shard burns and relayed mints around the ring.
	if cfg.XShardRounds > 0 {
		ph, burns, mints, err := runXShardPhase(cfg, shards)
		if err != nil {
			return nil, err
		}
		res.BurnsSent, res.MintsConfirmed = burns, mints
		res.Phases = append(res.Phases, *ph)
		logf("phase %s: %d burns -> %d mints over %d blocks", ph.Name, burns, mints, ph.Blocks)
	}

	// --- Final audit: per-shard heights, roots, and the hot counters,
	// which must equal the number of confirmed contract calls.
	for _, sr := range shards {
		head := sr.ch.Head()
		st := ShardState{ID: sr.id, Height: head.Header.Number, Root: head.Header.StateRoot}
		raw := sr.ch.HeadState().GetStorage(sr.hotAddr, contract.WordFromU64(0).Bytes())
		for _, b := range raw {
			st.HotCounter = st.HotCounter<<8 | uint64(b)
		}
		if st.HotCounter != sr.hotCalls {
			return nil, fmt.Errorf("soak: shard %d counter %d != %d confirmed calls", sr.id, st.HotCounter, sr.hotCalls)
		}
		res.States = append(res.States, st)
	}

	hits1, misses1 := crypto.DefaultVerifyCacheStats()
	res.VerifyHits, res.VerifyMisses = hits1-hits0, misses1-misses0
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	res.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
	res.Mallocs = memAfter.Mallocs - memBefore.Mallocs
	res.HeapUse = memAfter.HeapInuse
	res.TotalSeconds = time.Since(t0).Seconds()
	return res, nil
}

// signedTx builds and signs the sender's next transfer. The fee is a fixed
// per-sender hash, not a fresh draw: a Zipf-hot sender authors several
// transactions per round, and if those carried different fees the
// fee-descending selection order would invert their nonce order and the
// later nonces would be skipped at build time. Equal fees tie-break by
// (From, Nonce), so a sender's burst always applies in full.
func (sr *shardRun) signedTx(si int, to types.Address, feeMax int) (*types.Transaction, error) {
	fee := 1 + uint64(si*2654435761>>8)%uint64(feeMax)
	tx := &types.Transaction{
		Nonce: sr.nonces[si],
		From:  sr.addrs[si],
		To:    to,
		Value: 1,
		Fee:   fee,
	}
	if err := crypto.SignTx(tx, sr.keys[si]); err != nil {
		return nil, fmt.Errorf("soak: sign: %w", err)
	}
	sr.nonces[si]++
	return tx, nil
}

// runInjectionPhase injects TxsPerBlock transactions per shard per round
// and mines one block per shard per round, asserting full drain: every
// injected transaction must confirm in its round's block.
func runInjectionPhase(name string, rounds int, shards []*shardRun, gen func(*shardRun) (*types.Transaction, error)) (*Phase, error) {
	ph := &Phase{Name: name}
	var lat []float64
	start := time.Now()
	for round := 0; round < rounds; round++ {
		for _, sr := range shards {
			want := sr.ch.Config().MaxBlockTxs
			for i := 0; i < want; i++ {
				tx, err := gen(sr)
				if err != nil {
					return nil, err
				}
				if err := sr.pool.Add(tx); err != nil {
					return nil, fmt.Errorf("soak: %s shard %d add: %w", name, sr.id, err)
				}
			}
			bt := time.Now()
			blk, err := sr.ch.MineNext(sr.coinbase, sr.pool, nil, sr.ch.Head().Header.Time+1000)
			if err != nil {
				return nil, fmt.Errorf("soak: %s shard %d mine: %w", name, sr.id, err)
			}
			lat = append(lat, float64(time.Since(bt).Microseconds())/1000)
			ph.Blocks++
			ph.Txs += len(blk.Txs)
			if len(blk.Txs) != want || sr.pool.Size() != 0 {
				return nil, fmt.Errorf("soak: %s shard %d round %d: block %d/%d txs, %d left pooled",
					name, sr.id, round, len(blk.Txs), want, sr.pool.Size())
			}
		}
	}
	ph.fill(lat, time.Since(start))
	return ph, nil
}

// runXShardPhase pushes value around the shard ring: each round every shard
// signs BurnsPerRound burns to its ring successor and mines; relays step
// after every slot. Once injections stop, shards keep mining (empty blocks
// advance finality) until every burn's mint confirms on its destination.
func runXShardPhase(cfg Config, shards []*shardRun) (*Phase, int, int, error) {
	ph := &Phase{Name: "xshard-ring"}
	var lat []float64
	start := time.Now()
	burns, mints := 0, 0
	mineAll := func() error {
		for _, sr := range shards {
			bt := time.Now()
			blk, err := sr.ch.MineNext(sr.coinbase, sr.pool, nil, sr.ch.Head().Header.Time+1000)
			if err != nil {
				return fmt.Errorf("soak: xshard shard %d mine: %w", sr.id, err)
			}
			lat = append(lat, float64(time.Since(bt).Microseconds())/1000)
			ph.Blocks++
			ph.Txs += len(blk.Txs)
			for _, tx := range blk.Txs {
				if tx.Kind == types.TxXShardMint {
					mints++
				}
			}
		}
		for _, sr := range shards {
			if _, err := sr.relay.Step(); err != nil {
				return fmt.Errorf("soak: relay from shard %d: %w", sr.id, err)
			}
		}
		return nil
	}
	for round := 0; round < cfg.XShardRounds; round++ {
		for s, sr := range shards {
			dst := shards[(s+1)%cfg.Shards]
			for i := 0; i < cfg.BurnsPerRound; i++ {
				si := sr.rng.Intn(len(sr.keys))
				to := dst.addrs[si%len(dst.addrs)]
				fee := 1 + uint64(sr.rng.Intn(cfg.FeeMax))
				burn := xshard.NewBurn(sr.addrs[si], to, 1, fee, sr.nonces[si], sr.id, dst.id)
				if err := crypto.SignTx(burn, sr.keys[si]); err != nil {
					return nil, 0, 0, fmt.Errorf("soak: sign burn: %w", err)
				}
				sr.nonces[si]++
				if err := sr.pool.Add(burn); err != nil {
					return nil, 0, 0, fmt.Errorf("soak: shard %d add burn: %w", sr.id, err)
				}
				burns++
			}
		}
		if err := mineAll(); err != nil {
			return nil, 0, 0, err
		}
	}
	// Drain: keep slots ticking until every mint lands. The bound is
	// generous — burns relay after Finality descendants and mint in the
	// next block — so hitting it means the pipeline wedged.
	for slots := 0; mints < burns; slots++ {
		if slots > cfg.XShardRounds+int(cfg.Finality)+64 {
			return nil, 0, 0, fmt.Errorf("soak: xshard stalled at %d/%d mints", mints, burns)
		}
		if err := mineAll(); err != nil {
			return nil, 0, 0, err
		}
	}
	ph.fill(lat, time.Since(start))
	return ph, burns, mints, nil
}

func (p *Phase) fill(lat []float64, wall time.Duration) {
	p.Seconds = wall.Seconds()
	if p.Seconds > 0 {
		p.TPS = float64(p.Txs) / p.Seconds
	}
	p.P50 = metrics.Percentile(lat, 0.50)
	p.P95 = metrics.Percentile(lat, 0.95)
	p.P99 = metrics.Percentile(lat, 0.99)
	p.Max = metrics.Percentile(lat, 1)
}

// Report renders the run as tables on w.
func (r *Result) Report(w io.Writer) {
	pt := &metrics.Table{
		Title:   "soak phases",
		Headers: []string{"phase", "blocks", "txs", "wall s", "tx/s", "p50 ms", "p95 ms", "p99 ms", "max ms"},
	}
	for _, p := range r.Phases {
		pt.AddRow(p.Name, fmt.Sprint(p.Blocks), fmt.Sprint(p.Txs),
			fmt.Sprintf("%.2f", p.Seconds), fmt.Sprintf("%.0f", p.TPS),
			fmt.Sprintf("%.2f", p.P50), fmt.Sprintf("%.2f", p.P95),
			fmt.Sprintf("%.2f", p.P99), fmt.Sprintf("%.2f", p.Max))
	}
	fmt.Fprintln(w, pt.String())

	st := &metrics.Table{
		Title:   "final shard states",
		Headers: []string{"shard", "height", "hot calls", "state root"},
	}
	for _, s := range r.States {
		st.AddRow(fmt.Sprint(s.ID), fmt.Sprint(s.Height), fmt.Sprint(s.HotCounter), s.Root.String())
	}
	fmt.Fprintln(w, st.String())

	fmt.Fprintf(w, "accounts %d over %d shards; keygen %.2fs, genesis %.2fs, total %.2fs\n",
		r.Accounts, r.Shards, r.KeygenSeconds, r.GenesisSeconds, r.TotalSeconds)
	fmt.Fprintf(w, "xshard: %d burns sent, %d mints confirmed\n", r.BurnsSent, r.MintsConfirmed)
	fmt.Fprintf(w, "verify cache: %d hits, %d misses\n", r.VerifyHits, r.VerifyMisses)
	fmt.Fprintf(w, "allocations: %.1f MB total (%d mallocs), heap in use %.1f MB\n",
		float64(r.AllocBytes)/(1<<20), r.Mallocs, float64(r.HeapUse)/(1<<20))
}
