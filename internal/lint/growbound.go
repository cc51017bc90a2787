package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// growbound flags unbounded retained state: a map or slice field of a
// long-lived shared struct that has insert/append sites but no delete,
// eviction, reset or limit path anywhere in the package — the unbounded
// HeaderBook class from the PR 7 review. On a node serving millions of
// accounts, any per-key map with no eviction is a slow memory-exhaustion
// fault (and an eventual OOM-divergence between long- and short-running
// validators' capacity).
//
// "Long-lived shared struct" is approximated as a named struct type that
// carries a sync.Mutex/RWMutex field: in this codebase exactly the
// process-lifetime shared objects (Chain, Pool, Syncer, HeaderBook, the
// call-graph) are mutex-guarded, while per-call values (State, tx
// contexts) are documented as single-goroutine and carry none.
//
// A field is bounded if the package contains any of: a delete(f, ...), a
// reassignment of the field that is not a self-append (generation reset,
// ring rotation, truncation — the verify-cache and canonical-index
// shapes), or a len(f) comparison (an explicit capacity check guarding the
// insert — the orphan-pool shape). What it cannot prove: that the bound
// actually triggers, growth through aliases (`m := x.f; m[k] = v` is
// invisible), or domain-bounded maps (keyed by shard id, not by user
// input) — the latter take a `//shardlint:growbound` waiver naming the
// key's bounded domain.
//
// Scope: consensus packages plus the long-lived node-side packages
// (internal/node, internal/chainsync, internal/mempool, internal/crypto).
var growboundExtraPackages = []string{
	"internal/node", "internal/chainsync", "internal/mempool", "internal/crypto",
}

func growbound(loader *Loader, pkgs []*Package, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !cfg.isConsensus(pkg.RelPath) && !growboundExtra(pkg.RelPath) {
			continue
		}
		diags = append(diags, growboundPackage(loader, pkg)...)
	}
	return diags
}

func growboundExtra(relPath string) bool {
	for _, p := range growboundExtraPackages {
		if relPath == p || len(relPath) > len(p) && relPath[:len(p)+1] == p+"/" {
			return true
		}
	}
	return false
}

// growField is one container field of a mutex-guarded struct.
type growField struct {
	structName string
	fieldName  string
	kind       string // "map" or "slice"
	obj        *types.Var
	declPos    ast.Node
	grows      int
	bounded    bool
}

func growboundPackage(loader *Loader, pkg *Package) []Diagnostic {
	fields := map[*types.Var]*growField{}
	var order []*growField

	// Pass 1: container fields of structs that carry a mutex field.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			hasMutex := false
			for _, f := range st.Fields.List {
				if isSyncMutex(pkg.Info.TypeOf(f.Type)) {
					hasMutex = true
				}
			}
			if !hasMutex {
				return true
			}
			for _, f := range st.Fields.List {
				t := pkg.Info.TypeOf(f.Type)
				if t == nil {
					continue
				}
				kind := ""
				switch t.Underlying().(type) {
				case *types.Map:
					kind = "map"
				case *types.Slice:
					kind = "slice"
				default:
					continue
				}
				for _, name := range f.Names {
					v, ok := pkg.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					gf := &growField{structName: ts.Name.Name, fieldName: name.Name,
						kind: kind, obj: v, declPos: name}
					fields[v] = gf
					order = append(order, gf)
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		return nil
	}

	// fieldOf resolves an expression to one of the tracked field objects.
	fieldOf := func(e ast.Expr) *growField {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok {
			return fields[v]
		}
		return nil
	}

	// Pass 2: grow and bound sites across the whole package.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					// Map insert: x.f[k] = v.
					if idx, ok := lhs.(*ast.IndexExpr); ok {
						if gf := fieldOf(idx.X); gf != nil && gf.kind == "map" {
							gf.grows++
						}
						continue
					}
					// Field reassignment: self-append grows, anything else
					// (make, nil, truncation, ring swap) is a reset/bound.
					gf := fieldOf(lhs)
					if gf == nil {
						continue
					}
					if i < len(n.Rhs) {
						if call, ok := n.Rhs[i].(*ast.CallExpr); ok {
							if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "append" &&
								len(call.Args) > 0 && fieldOf(call.Args[0]) == gf {
								gf.grows++
								continue
							}
						}
					}
					gf.bounded = true
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
					switch id.Name {
					case "delete":
						if gf := fieldOf(n.Args[0]); gf != nil {
							gf.bounded = true
						}
					case "append":
						// append not assigned back to the field still marks
						// intent to grow when it is `x.f = append(x.f, ...)`;
						// that case is handled above. A bare append(x.f, ...)
						// into another variable copies, so it is ignored.
					}
				}
			case *ast.BinaryExpr:
				// Explicit capacity check: len(x.f) anywhere inside either
				// side of a comparison (covers composed sizes such as
				// len(a)+len(b) >= cap).
				switch n.Op.String() {
				case "<", "<=", ">", ">=", "==", "!=":
				default:
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					ast.Inspect(side, func(c ast.Node) bool {
						call, ok := c.(*ast.CallExpr)
						if !ok {
							return true
						}
						id, ok := call.Fun.(*ast.Ident)
						if !ok || id.Name != "len" || len(call.Args) != 1 {
							return true
						}
						if gf := fieldOf(call.Args[0]); gf != nil {
							gf.bounded = true
						}
						return true
					})
				}
			}
			return true
		})
	}

	var diags []Diagnostic
	for _, gf := range order {
		if gf.grows == 0 || gf.bounded {
			continue
		}
		file, line, col := posOf(loader, pkg, gf.declPos.Pos())
		diags = append(diags, Diagnostic{
			File: file, Line: line, Col: col,
			Analyzer: "growbound",
			Message: fmt.Sprintf("%s field %s.%s grows at %d site(s) but the package has no delete/reset/len-capacity path for it; long-lived shared state must be bounded (evict, rotate generations, or cap inserts)",
				gf.kind, gf.structName, gf.fieldName, gf.grows),
		})
	}
	return diags
}
