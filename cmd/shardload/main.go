// Command shardload runs the deterministic soak harness (internal/soak):
// seed a large funded account set across many shard chains, replay
// Zipf-skewed transfer and hot-contract streams, push cross-shard value
// around the ring through burns and relayed mints, and print per-phase
// throughput, block latency percentiles and allocation statistics.
//
// The defaults are the acceptance-scale run — a million accounts over 32
// shards. Identical flags (and in particular the same -seed) always finish
// with identical per-shard state roots; -smoke shrinks the run to the
// tier-1 test's scale for a quick check.
//
// Usage:
//
//	go run ./cmd/shardload                     # 10^6 accounts, 32 shards
//	go run ./cmd/shardload -smoke              # 10^4 accounts, 4 shards
//	go run ./cmd/shardload -accounts 100000 -shards 8
package main

import (
	"flag"
	"fmt"
	"os"

	"contractshard/internal/soak"
)

func main() {
	cfg := soak.DefaultConfig()
	flag.IntVar(&cfg.Accounts, "accounts", cfg.Accounts, "total funded accounts, split over the shards")
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "number of shard chains")
	flag.IntVar(&cfg.Rounds, "rounds", cfg.Rounds, "Zipf-transfer blocks per shard")
	flag.IntVar(&cfg.HotRounds, "hot-rounds", cfg.HotRounds, "hot-contract blocks per shard")
	flag.IntVar(&cfg.TxsPerBlock, "txs-per-block", cfg.TxsPerBlock, "transactions injected and mined per block")
	flag.IntVar(&cfg.XShardRounds, "xshard-rounds", cfg.XShardRounds, "cross-shard burn rounds per shard")
	flag.IntVar(&cfg.BurnsPerRound, "burns", cfg.BurnsPerRound, "burns per shard per xshard round")
	finality := flag.Uint64("finality", cfg.Finality, "xshard header-book finality depth")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "seed for keys, senders, fees — fixes the final state roots")
	flag.Float64Var(&cfg.ZipfS, "zipf", cfg.ZipfS, "sender-popularity Zipf skew (<=1 selects 1.2)")
	flag.IntVar(&cfg.FeeMax, "fee-max", cfg.FeeMax, "per-sender fee cap")
	flag.IntVar(&cfg.StateHistory, "state-history", cfg.StateHistory, "resident post-states per shard")
	smoke := flag.Bool("smoke", false, "shrink to the tier-1 smoke scale (10^4 accounts, 4 shards)")
	quiet := flag.Bool("q", false, "suppress progress lines, print only the final report")
	flag.Parse()

	cfg.Finality = *finality
	if *smoke {
		cfg.Accounts, cfg.Shards = 10_000, 4
		cfg.Rounds, cfg.HotRounds = 3, 2
		cfg.TxsPerBlock, cfg.XShardRounds, cfg.BurnsPerRound = 50, 2, 8
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}

	res, err := soak.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardload: %v\n", err)
		os.Exit(1)
	}
	res.Report(os.Stdout)
}
