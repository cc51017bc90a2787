package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// asMainEnv makes the test binary run the benchmark's main instead of the
// tests, so every toy run gets a fresh process: the verify cache and the
// memoized hashes are process-wide and must start cold, as in a real run.
const asMainEnv = "PERFBENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// toyRun runs one workload at toy scale for a fixed number of slots in a
// child process and returns its fingerprint and exact-counts lines.
func toyRun(t *testing.T, workload, seed string) (fingerprint, counts string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", seed, "--toy", "--slots", "6",
		"--workdir", t.TempDir())
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s seed %s: %v\n%s", workload, seed, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "fingerprint "); ok {
			fingerprint = v
		}
		if v, ok := strings.CutPrefix(line, "counts "); ok {
			counts = v
		}
	}
	if fingerprint == "" || counts == "" {
		t.Fatalf("%s seed %s: no fingerprint or counts in output:\n%s", workload, seed, out)
	}
	return fingerprint, counts
}

// Each workload at toy scale is deterministic in its seed: the same seed
// reproduces the final state roots and every exact count, another seed
// changes the roots.
func TestDeterministicFingerprint(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			f1, c1 := toyRun(t, w.name, "7")
			f2, c2 := toyRun(t, w.name, "7")
			if f1 != f2 {
				t.Errorf("same seed, different fingerprints: %s vs %s", f1, f2)
			}
			if c1 != c2 {
				t.Errorf("same seed, different counts:\n%s\n%s", c1, c2)
			}
			if f3, _ := toyRun(t, w.name, "8"); f3 == f1 {
				t.Errorf("seeds 7 and 8 share fingerprint %s", f1)
			}
		})
	}
}

func TestMedianAndPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	r := &run{confirmMs: xs, blockMs: []float64{4, 1, 3, 2}, recoverSecs: []float64{0.3, 0.1, 0.2},
		winConfirmed: 50, windowSecs: 2}
	m := r.endToEnd([]float64{5, 1, 3, 2, 4})
	for name, want := range map[string]float64{
		"confirm_p50_ms": 50.5,  // between the 50th and 51st of 1..100
		"confirm_p99_ms": 99.01, // 99th plus 1% of the gap to the 100th
		"block_p50_ms":   2.5,
		"block_p90_ms":   3.7,
		"setup_s":        3,
		"recover_s":      0.2,
		"tps":            25,
	} {
		if got := m[name].Value; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// Self time is a span's duration minus its children's; the per-layer
// table's self column sums to the wall time it covers.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{kind: spanSlot, parent: -1, start: 0, end: 100},
		{kind: spanSubmit, parent: 0, start: 10, end: 30},
		{kind: spanMine, parent: 0, start: 40, end: 90},
		{kind: spanStoreAppend, parent: 2, start: 50, end: 55},
		{kind: spanStoreAppend, parent: 2, start: 60, end: 70},
		{kind: spanSlot, parent: -1, start: 120, end: 150},
	}
	want := []int64{100 - 20 - 50, 20, 50 - 5 - 10, 5, 10, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got, want[i])
		}
	}

	rows := layerTable(spans, 0, 200)
	var sum int64
	for _, r := range rows {
		sum += r.self
	}
	if sum != 200 {
		t.Errorf("table self column sums to %d, want the wall time 200", sum)
	}
	if got := rows[numSpanKinds]; got.name != "untraced" || got.self != 200-100-30 {
		t.Errorf("untraced row %+v, want 70", got)
	}
	if got := rows[spanStoreAppend]; got.count != 2 || got.total != 15 || got.self != 15 {
		t.Errorf("store.append row %+v", got)
	}

	// A window that cuts the first slot off counts only what lies inside.
	rows = layerTable(spans, 110, 160)
	sum = 0
	for _, r := range rows {
		sum += r.self
	}
	if sum != 50 || rows[spanSlot].count != 1 {
		t.Errorf("windowed table: sum %d, slot rows %d", sum, rows[spanSlot].count)
	}

	n, total, size := spanStats([]span{{kind: spanDecode, start: 0, end: 4, n: 3}, {kind: spanDecode, start: 5, end: 7, n: 2}}, spanDecode, 0, 10)
	if n != 2 || total != 6 || size != 5 {
		t.Errorf("spanStats = %d, %d, %d", n, total, size)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"contractshard/internal/state.(*State).Root":                 "state",
		"contractshard/internal/trie.(*Trie).Hash":                   "trie",
		"contractshard/internal/node.New.func3":                      "node",
		"contractshard/internal/chain.(*Chain).AddBlock.func1.2":     "chain",
		"contractshard/internal/types.(*Encoder).WriteUint64":        "",
		"contractshard/internal/crypto.HashBytes":                    "",
		"contractshard/internal/chain.(*Chain).applyTransaction":     "",
		"crypto/ed25519.Verify":                                      "",
		"contractshard/internal/crypto.VerifyTx":                     "crypto",
		"contractshard/internal/xshard.(*Relay).Step":                "xshard",
		"contractshard/internal/chainsync.(*Syncer).CatchUp.gowrap1": "chainsync",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for layer := range entryPoints {
		found := false
		for _, l := range cpuLayers {
			found = found || l == layer
		}
		if !found {
			t.Errorf("layer %q has entry points but is not reported", layer)
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) (h [32]byte) {
	for start := time.Now(); time.Since(start) < d; {
		h = sha256.Sum256(h[:])
	}
	return h
}

// The profile parser reads a real runtime/pprof CPU profile: samples carry
// CPU time, and frames outside the repository fall to "runtime".
func TestAttributeCPUReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fns := range p.locFuncs {
		for _, fn := range fns {
			found = found || strings.HasSuffix(fn, ".burnCPU")
		}
	}
	if !found {
		t.Errorf("burnCPU not among the profile's %d locations", len(p.locFuncs))
	}
	byLayer, err := attributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if byLayer["runtime"] < int64(50*time.Millisecond) || len(byLayer) != 1 {
		t.Errorf("attribution %v, want only runtime with most of 300ms", byLayer)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
