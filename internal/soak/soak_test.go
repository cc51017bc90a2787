package soak

import (
	"testing"
)

// smokeConfig is the tier-1 determinism gate: 10^4 accounts over 4 shards
// with a fixed seed, small enough for tier-1 but still driving every phase —
// Zipf transfers, hot-contract serialization, and the burn→relay→mint ring.
func smokeConfig() Config {
	return Config{
		Accounts:      10_000,
		Shards:        4,
		Rounds:        3,
		HotRounds:     2,
		TxsPerBlock:   50,
		XShardRounds:  2,
		BurnsPerRound: 8,
		Finality:      2,
		Seed:          42,
		ZipfS:         1.2,
		StateHistory:  4,
	}
}

// TestSoakSmokeDeterministic runs the smoke soak twice and demands
// bit-identical final state roots (and heights, and hot counters) — the
// whole pipeline, from key derivation through block execution to relayed
// mints, must be a pure function of the Config.
func TestSoakSmokeDeterministic(t *testing.T) {
	a, err := Run(smokeConfig())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(smokeConfig())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if len(a.States) != len(b.States) || len(a.States) != 4 {
		t.Fatalf("shard counts: %d vs %d", len(a.States), len(b.States))
	}
	for i := range a.States {
		sa, sb := a.States[i], b.States[i]
		if sa.Root != sb.Root {
			t.Fatalf("shard %d state roots diverge: %s vs %s", sa.ID, sa.Root, sb.Root)
		}
		if sa.Height != sb.Height || sa.HotCounter != sb.HotCounter {
			t.Fatalf("shard %d summaries diverge: %+v vs %+v", sa.ID, sa, sb)
		}
	}

	// The run's own accounting must close: every burn minted exactly once,
	// and every phase present with work in it.
	if a.BurnsSent == 0 || a.MintsConfirmed != a.BurnsSent {
		t.Fatalf("xshard accounting: %d burns, %d mints", a.BurnsSent, a.MintsConfirmed)
	}
	if len(a.Phases) != 3 {
		t.Fatalf("want 3 phases, got %d", len(a.Phases))
	}
	cfg := smokeConfig()
	wantTransfers := cfg.Rounds * cfg.Shards * cfg.TxsPerBlock
	if a.Phases[0].Txs != wantTransfers {
		t.Fatalf("transfer phase confirmed %d txs, want %d", a.Phases[0].Txs, wantTransfers)
	}
	wantHot := cfg.HotRounds * cfg.Shards * cfg.TxsPerBlock
	if a.Phases[1].Txs != wantHot {
		t.Fatalf("hot phase confirmed %d txs, want %d", a.Phases[1].Txs, wantHot)
	}
	for _, s := range a.States {
		if s.HotCounter == 0 {
			t.Fatalf("shard %d hot counter stayed zero", s.ID)
		}
	}
}

// TestSoakConfigValidation pins the error paths of withDefaults.
func TestSoakConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Run(Config{Accounts: 2, Shards: 4}); err == nil {
		t.Fatal("fewer accounts than shards accepted")
	}
	if _, err := Run(Config{Accounts: 10, Shards: 2, Rounds: -1}); err == nil {
		t.Fatal("negative rounds accepted")
	}
}
