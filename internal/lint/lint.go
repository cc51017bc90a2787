// Package lint implements shardlint, a repo-specific static-analysis suite
// that enforces the determinism and lock discipline the sharding protocol
// depends on (DESIGN.md "Determinism discipline"). Four analyzers run over
// the module using only the standard library's go/ast, go/parser and
// go/types:
//
//   - detrange: range-over-map in consensus-critical packages, unless the
//     iteration demonstrably feeds a sort or carries a
//     `//shardlint:ordered <reason>` waiver. An unordered map walk in a
//     consensus path silently forks the shard: two miners replaying the
//     same merging/selection game disagree bit-for-bit.
//   - detsource: wall-clock (time.Now), ambient environment (os.Getenv),
//     and global math/rand calls reachable from consensus packages. Seeded
//     rand.New(rand.NewSource(...)) streams stay legal.
//   - locksafe: per-package call-graph walk for self-deadlocks (a method
//     re-acquiring a mutex field a caller already holds) and for channel
//     sends or p2p/chainsync calls made while a write lock is held — the
//     mechanized form of DESIGN.md "Chain lock discipline".
//   - errdrop: discarded error returns in non-test code.
//
// Four dataflow analyzers mechanize the consensus bug classes fixed by
// hand in earlier reviews (see each analyzer's file for the full
// can/cannot-prove contract):
//
//   - statesafe: snapshot-before-mutate / revert-on-failure discipline for
//     state.State consumers (the invalid-receipt leakage class).
//   - ovflow: unchecked uint64 +, -, * on money-named consensus
//     quantities outside guard idioms and math/bits helpers (the
//     value+fee solvency wraparound class).
//   - growbound: map/slice fields of long-lived mutex-guarded structs
//     with insert sites but no delete/reset/capacity path (the unbounded
//     HeaderBook class).
//   - lockorder: module-wide lock-acquisition graph cycles — cross-package
//     deadlocks locksafe's same-receiver walk cannot see.
//
// Diagnostics print as `file:line: [analyzer] message` and are suppressed
// by a `//shardlint:<key> <reason>` comment on the flagged line or the line
// directly above it. A waiver with an empty reason is itself a diagnostic,
// and every suppression is recorded on the waiver inventory: waivers are
// audited (shardlint -waivers fails on malformed, unknown-key and stale
// waivers), not free passes.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// DefaultConsensusPackages lists the module-relative package paths whose
// re-execution must be bit-for-bit deterministic across miners (parameter
// unification, the merging and transaction-selection games, and the state
// machine they replay against), plus the durable store a restarted miner
// replays its ledger from. A package matches by exact path or by prefix, so
// internal/game covers internal/game/replicator too.
var DefaultConsensusPackages = []string{
	"internal/unify",
	"internal/merge",
	"internal/txsel",
	"internal/game",
	"internal/sharding",
	"internal/state",
	"internal/trie",
	"internal/chain",
	"internal/contract",
	"internal/callgraph",
	"internal/store",
	"internal/xshard",
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	File     string `json:"file"` // module-relative
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Waiver is one `//shardlint:<key> <reason>` comment found in a source file.
type Waiver struct {
	File   string `json:"file"` // module-relative
	Line   int    `json:"line"`
	Key    string `json:"key"`
	Reason string `json:"reason"`
	// Used reports whether the waiver suppressed at least one diagnostic in
	// this run. A well-formed waiver that suppresses nothing is stale — the
	// code it excused has moved or been fixed — and fails the -waivers
	// audit so the inventory cannot rot.
	Used bool `json:"used"`
}

// Config controls which packages count as consensus-critical and which
// analyzers run. The zero value runs everything against
// DefaultConsensusPackages.
type Config struct {
	// ConsensusPackages overrides DefaultConsensusPackages (module-relative
	// paths, prefix-matched). Used by fixture tests to point the analyzers
	// at testdata packages.
	ConsensusPackages []string
	// Disabled names analyzers to skip ("detrange", "detsource",
	// "locksafe", "errdrop", "statesafe", "ovflow", "growbound",
	// "lockorder").
	Disabled []string
	// LockUnsafeCallees overrides the packages locksafe treats as blocking
	// publication targets (default internal/p2p and internal/chainsync),
	// matched as import-path suffixes. Used by fixture tests.
	LockUnsafeCallees []string
}

func (c Config) consensus() []string {
	if c.ConsensusPackages != nil {
		return c.ConsensusPackages
	}
	return DefaultConsensusPackages
}

func (c Config) enabled(name string) bool {
	for _, d := range c.Disabled {
		if d == name {
			return false
		}
	}
	return true
}

// isConsensus reports whether the package (by module-relative path) is in
// the consensus-critical set.
func (c Config) isConsensus(relPath string) bool {
	for _, p := range c.consensus() {
		if relPath == p || strings.HasPrefix(relPath, p+"/") {
			return true
		}
	}
	return false
}

// waiverKeys maps analyzer names to the comment key that waives them. The
// detrange key is "ordered" — the waiver asserts an ordering property, not
// just "shut up".
var waiverKeys = map[string]string{
	"detrange":  "ordered",
	"detsource": "detsource",
	"locksafe":  "locksafe",
	"errdrop":   "errdrop",
	"statesafe": "statesafe",
	"ovflow":    "ovflow",
	"growbound": "growbound",
	"lockorder": "lockorder",
}

var validWaiverKeys = map[string]bool{
	"ordered": true, "detsource": true, "locksafe": true, "errdrop": true,
	"statesafe": true, "ovflow": true, "growbound": true, "lockorder": true,
}

// Result is the outcome of a Run: surviving diagnostics plus the complete
// waiver inventory (for the -waivers audit mode).
type Result struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Waivers     []Waiver     `json:"waivers"`
}

// Run loads the packages matched by patterns below dir and applies the
// analyzer suite.
func Run(dir string, patterns []string, cfg Config) (*Result, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		return nil, err
	}
	return RunPackages(loader, pkgs, cfg), nil
}

// RunPackages applies the analyzer suite to already-loaded packages.
func RunPackages(loader *Loader, pkgs []*Package, cfg Config) *Result {
	var diags []Diagnostic
	if cfg.enabled("detrange") {
		diags = append(diags, detrange(loader, pkgs, cfg)...)
	}
	if cfg.enabled("detsource") {
		diags = append(diags, detsource(loader, pkgs, cfg)...)
	}
	if cfg.enabled("locksafe") {
		diags = append(diags, locksafe(loader, pkgs, cfg)...)
	}
	if cfg.enabled("errdrop") {
		diags = append(diags, errdrop(loader, pkgs, cfg)...)
	}
	if cfg.enabled("statesafe") {
		diags = append(diags, statesafe(loader, pkgs, cfg)...)
	}
	if cfg.enabled("ovflow") {
		diags = append(diags, ovflow(loader, pkgs, cfg)...)
	}
	if cfg.enabled("growbound") {
		diags = append(diags, growbound(loader, pkgs, cfg)...)
	}
	if cfg.enabled("lockorder") {
		diags = append(diags, lockorder(loader, pkgs, cfg)...)
	}

	waivers, waiverDiags := collectWaivers(loader, pkgs)
	diags = append(diags, waiverDiags...)
	diags = suppress(diags, waivers)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(waivers, func(i, j int) bool {
		a, b := waivers[i], waivers[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return &Result{Diagnostics: diags, Waivers: waivers}
}

// collectWaivers scans every comment in the loaded files for shardlint
// waiver markers. Malformed waivers (unknown key, empty reason) become
// diagnostics themselves and never suppress anything.
func collectWaivers(loader *Loader, pkgs []*Package) ([]Waiver, []Diagnostic) {
	var waivers []Waiver
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for i, file := range pkg.Files {
			name := pkg.FileNames[i]
			for _, group := range file.Comments {
				for _, comment := range group.List {
					text, ok := strings.CutPrefix(comment.Text, "//shardlint:")
					if !ok {
						continue
					}
					pos := loader.Fset.Position(comment.Pos())
					key, reason, _ := strings.Cut(text, " ")
					reason = strings.TrimSpace(reason)
					if !validWaiverKeys[key] {
						diags = append(diags, Diagnostic{
							File: name, Line: pos.Line, Col: pos.Column,
							Analyzer: "waiver",
							Message:  fmt.Sprintf("unknown shardlint waiver key %q (want ordered, detsource, locksafe, errdrop, statesafe, ovflow, growbound or lockorder)", key),
						})
						continue
					}
					if reason == "" {
						diags = append(diags, Diagnostic{
							File: name, Line: pos.Line, Col: pos.Column,
							Analyzer: "waiver",
							Message:  fmt.Sprintf("shardlint:%s waiver requires a reason (\"//shardlint:%s <why this is safe>\")", key, key),
						})
						continue
					}
					waivers = append(waivers, Waiver{File: name, Line: pos.Line, Key: key, Reason: reason})
				}
			}
		}
	}
	return waivers, diags
}

// suppress drops diagnostics covered by a well-formed waiver on the same
// line or the line immediately above, and marks the covering waiver used.
func suppress(diags []Diagnostic, waivers []Waiver) []Diagnostic {
	type at struct {
		file string
		line int
		key  string
	}
	index := map[at]int{}
	for i, w := range waivers {
		index[at{w.File, w.Line, w.Key}] = i + 1 // 1-based; 0 means absent
	}
	kept := diags[:0]
	for _, d := range diags {
		key := waiverKeys[d.Analyzer]
		if key != "" {
			if i := index[at{d.File, d.Line, key}]; i > 0 {
				waivers[i-1].Used = true
				continue
			}
			if i := index[at{d.File, d.Line - 1, key}]; i > 0 {
				waivers[i-1].Used = true
				continue
			}
		}
		kept = append(kept, d)
	}
	return kept
}

// posOf converts a token.Pos into a module-relative Diagnostic position.
func posOf(loader *Loader, pkg *Package, p token.Pos) (string, int, int) {
	pos := loader.Fset.Position(p)
	file := pos.Filename
	for i, name := range pkg.FileNames {
		full := loader.Fset.Position(pkg.Files[i].Pos()).Filename
		if full == file {
			return name, pos.Line, pos.Column
		}
	}
	return file, pos.Line, pos.Column
}

// funcBodies yields every function declaration with a body in the package,
// paired with its file index.
func funcBodies(pkg *Package) []funcDecl {
	var out []funcDecl
	for i, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, funcDecl{fd, i})
			}
		}
	}
	return out
}

type funcDecl struct {
	decl    *ast.FuncDecl
	fileIdx int
}
