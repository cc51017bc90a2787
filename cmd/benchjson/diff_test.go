package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func bench(pkg, name string, ns float64) result {
	return result{Name: name, Pkg: pkg, Iterations: 100, Metrics: map[string]float64{"ns/op": ns}}
}

func statuses(rows []delta) map[string]string {
	out := map[string]string{}
	for _, d := range rows {
		out[d.Key] = d.Status
	}
	return out
}

// TestDiffDocsGate pins the gate semantics: >threshold growth on a gated
// benchmark fails, growth on an ungated one does not, improvements never
// fail, and a gated benchmark vanishing from the candidate fails too.
func TestDiffDocsGate(t *testing.T) {
	oldDoc := document{Results: []result{
		bench("contractshard/internal/chain", "BenchmarkAddBlock-8", 1000),
		bench("contractshard/internal/chain", "BenchmarkOther-8", 1000),
		bench("contractshard/internal/chain", "BenchmarkReopenReplay-8", 500),
		bench("contractshard/internal/chain", "BenchmarkGone-8", 100),
	}}
	newDoc := document{Results: []result{
		bench("contractshard/internal/chain", "BenchmarkAddBlock-4", 1200), // +20%, gated
		bench("contractshard/internal/chain", "BenchmarkOther-4", 5000),    // +400%, ungated
		bench("contractshard/internal/chain", "BenchmarkReopenReplay-4", 200),
		bench("contractshard/internal/chain", "BenchmarkFresh-4", 50),
	}}
	gate := regexp.MustCompile("AddBlock|ReopenReplay|Gone")
	rows, failed, err := diffDocs(oldDoc, newDoc, 0.15, gate)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("20% regression on a gated benchmark passed")
	}
	st := statuses(rows)
	if st["contractshard/internal/chain: BenchmarkAddBlock"] != "REGRESSED" {
		t.Fatalf("AddBlock: %q", st["contractshard/internal/chain: BenchmarkAddBlock"])
	}
	if st["contractshard/internal/chain: BenchmarkOther"] != "ok" {
		t.Fatalf("ungated 5x slowdown must stay informational: %q", st["contractshard/internal/chain: BenchmarkOther"])
	}
	if st["contractshard/internal/chain: BenchmarkReopenReplay"] != "faster" {
		t.Fatalf("improvement: %q", st["contractshard/internal/chain: BenchmarkReopenReplay"])
	}
	if st["contractshard/internal/chain: BenchmarkGone"] != "MISSING" {
		t.Fatalf("vanished gated benchmark: %q", st["contractshard/internal/chain: BenchmarkGone"])
	}
	if st["contractshard/internal/chain: BenchmarkFresh"] != "new" {
		t.Fatalf("new benchmark: %q", st["contractshard/internal/chain: BenchmarkFresh"])
	}

	// Within threshold on both sides of zero: no failure, nil gate gates all.
	calm := document{Results: []result{bench("p", "BenchmarkX-8", 1100)}}
	base := document{Results: []result{bench("p", "BenchmarkX-8", 1000)}}
	if _, failed, _ := diffDocs(base, calm, 0.15, nil); failed {
		t.Fatal("+10% within a 15% threshold failed")
	}
	if _, failed, _ := diffDocs(base, document{Results: []result{bench("p", "BenchmarkX-8", 1200)}}, 0.15, nil); !failed {
		t.Fatal("+20% under a nil (gate-everything) regexp passed")
	}
}

// TestDiffDocsCPUSweep: the -N suffix is stripped so differing core counts
// still match, which makes a -cpu sweep (one name at several core counts)
// a duplicate key on either side of the diff — an error, not a silent
// last-one-wins.
func TestDiffDocsCPUSweep(t *testing.T) {
	single := document{Results: []result{bench("p", "BenchmarkSingle-8", 700)}}
	rows, failed, err := diffDocs(single, document{Results: []result{bench("p", "BenchmarkSingle-2", 720)}}, 0.15, nil)
	if err != nil || failed {
		t.Fatalf("renamed-suffix single benchmark: failed %v err %v", failed, err)
	}
	if st := statuses(rows); st["p: BenchmarkSingle"] != "ok" {
		t.Fatalf("BenchmarkSingle: %q (all rows: %v)", st["p: BenchmarkSingle"], st)
	}

	sweep := document{Results: []result{
		bench("p", "BenchmarkProcessBlock-1", 4000),
		bench("p", "BenchmarkProcessBlock-4", 1000),
	}}
	if _, _, err := diffDocs(sweep, single, 0.15, nil); err == nil || !strings.Contains(err.Error(), "baseline: duplicate benchmark p: BenchmarkProcessBlock") {
		t.Fatalf("cpu sweep in the baseline: err %v", err)
	}
	if _, _, err := diffDocs(single, sweep, 0.15, nil); err == nil || !strings.Contains(err.Error(), "candidate: duplicate benchmark p: BenchmarkProcessBlock") {
		t.Fatalf("cpu sweep in the candidate: err %v", err)
	}
}

// TestDiffDocsDuplicateName: the same unsuffixed name twice in one package
// (a benchmark run twice into one artifact) is rejected, while the same
// name in two packages is two distinct benchmarks.
func TestDiffDocsDuplicateName(t *testing.T) {
	twice := document{Results: []result{
		bench("p", "BenchmarkProcessBlockSerial", 146215),
		bench("p", "BenchmarkProcessBlockSerial", 101209),
	}}
	if _, _, err := diffDocs(twice, twice, 0.15, nil); err == nil || !strings.Contains(err.Error(), "duplicate benchmark p: BenchmarkProcessBlockSerial") {
		t.Fatalf("duplicate name: err %v", err)
	}
	twoPkgs := document{Results: []result{
		bench("p", "BenchmarkX", 100),
		bench("q", "BenchmarkX", 200),
	}}
	if _, failed, err := diffDocs(twoPkgs, twoPkgs, 0.15, nil); err != nil || failed {
		t.Fatalf("same name in two packages: failed %v err %v", failed, err)
	}
}

func TestStripCPU(t *testing.T) {
	cases := map[string]string{
		"BenchmarkAddBlock-8":  "BenchmarkAddBlock",
		"BenchmarkAddBlock-16": "BenchmarkAddBlock",
		"BenchmarkAddBlock":    "BenchmarkAddBlock",
		"BenchmarkAddBlock-":   "BenchmarkAddBlock-",
		"BenchmarkTop-40-8":    "BenchmarkTop-40",
		"-8":                   "-8",
	}
	for in, want := range cases {
		if got := stripCPU(in); got != want {
			t.Fatalf("stripCPU(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRunDiffRendering: the table mentions every benchmark and the FAIL
// trailer appears exactly when the gate trips.
func TestRunDiffRendering(t *testing.T) {
	dir := t.TempDir()
	writeDoc := func(name string, doc document) string {
		path := dir + "/" + name
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := writeDoc("old.json", document{Results: []result{bench("p", "BenchmarkAddBlock-8", 1000)}})
	newPath := writeDoc("new.json", document{Results: []result{bench("p", "BenchmarkAddBlock-8", 2000)}})
	var b strings.Builder
	failed, err := runDiff(oldPath, newPath, 0.15, nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("2x regression passed")
	}
	out := b.String()
	if !strings.Contains(out, "BenchmarkAddBlock") || !strings.Contains(out, "+100.0%") || !strings.Contains(out, "FAIL") {
		t.Fatalf("diff table incomplete:\n%s", out)
	}
}
