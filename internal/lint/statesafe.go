package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// statesafe mechanizes the snapshot/revert discipline around ledger
// mutation (DESIGN.md "Determinism discipline"): in consensus packages, a
// function that mutates a state-like value (anything with Snapshot() /
// RevertToSnapshot(), i.e. state.State) and can leave through a failure
// path must take a Snapshot before the first mutation and revert before
// reporting the failure.
// Without the revert, an invalid transaction leaks partial mutations — the
// PR 5 invalid-receipt bug class: a bumped nonce and a debited fee survive
// a ReceiptInvalid, and two miners that disagree on the invalidity point
// fork the shard.
//
// The walk is branch-aware in the style of locksafe's held-set: each branch
// gets a copy of the path state {snapshotted, mutated, failed}, so a revert
// on the error arm does not launder the fallthrough arm. Concretely:
//
//   - R1 (snapshot-first): in a function that uses RevertToSnapshot on the
//     tracked value anywhere (directly or via a local closure), a mutation
//     on a path with no prior Snapshot is reported — the revert target
//     cannot cover it.
//   - R2 (leak on failure): a return that reports failure — a non-nil
//     error result, an errors.New/fmt.Errorf call, or a path that stamped
//     a failure receipt status (ReceiptInvalid/ReceiptReverted/
//     ReceiptFailed) — while the path carries unreverted mutations.
//
// Tracked values are parameters and receivers only: a locally created
// state (st := base.Copy()) dies with the call frame, so partial mutations
// cannot leak to the caller. Methods whose receiver is itself state-like
// are skipped — the state implementation maintains the journal the
// invariant relies on and is covered by its own unit tests. Passing the
// tracked value to another function (or capturing it in a composite
// literal) is treated as a potential mutation; calls to local closures
// whose body reverts the value count as reverts. At most one diagnostic is
// reported per function and tracked value, so a single waiver covers a
// function whose safety argument lives at the caller.
//
// What it cannot prove: reverts performed by callees that receive the
// value (the conservative "passing mutates" answer may need a waiver whose
// reason names the caller-side invariant), mutation through aliases, and
// closures taking their own state parameter.

// statesafeMutators is the mutating method-name set of the state types.
var statesafeMutators = map[string]bool{
	"AddBalance": true, "SubBalance": true,
	"SetNonce": true, "SetCode": true, "SetStorage": true, "Transfer": true,
}

// statesafeFailStatus names the receipt status idents that mark an
// invalid/reverted outcome; assigning or returning one marks the path as a
// failure path.
var statesafeFailStatus = map[string]bool{
	"ReceiptInvalid": true, "ReceiptReverted": true, "ReceiptFailed": true,
}

func statesafe(loader *Loader, pkgs []*Package, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !cfg.isConsensus(pkg.RelPath) {
			continue
		}
		for _, fn := range funcBodies(pkg) {
			diags = append(diags, statesafeFunc(loader, pkg, fn.decl)...)
		}
	}
	return diags
}

// isStateLike reports whether t's method set carries Snapshot() and
// RevertToSnapshot(x).
func isStateLike(t types.Type) bool {
	if t == nil {
		return false
	}
	has := func(ms *types.MethodSet) bool {
		snap := ms.Lookup(nil, "Snapshot")
		rev := ms.Lookup(nil, "RevertToSnapshot")
		if snap == nil || rev == nil {
			return false
		}
		ssig, ok1 := snap.Obj().Type().(*types.Signature)
		rsig, ok2 := rev.Obj().Type().(*types.Signature)
		return ok1 && ok2 && ssig.Params().Len() == 0 && rsig.Params().Len() == 1
	}
	if has(types.NewMethodSet(t)) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return has(types.NewMethodSet(types.NewPointer(t)))
	}
	return false
}

// statesafeFunc analyzes one declared function for every state-like
// parameter (receiver included).
func statesafeFunc(loader *Loader, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	// Skip the state implementation layer: methods on state-like receivers.
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if isStateLike(pkg.Info.TypeOf(fd.Recv.List[0].Type)) {
			return nil
		}
	}
	var diags []Diagnostic
	track := func(names []*ast.Ident) {
		for _, name := range names {
			obj := pkg.Info.Defs[name]
			if obj == nil || !isStateLike(obj.Type()) {
				continue
			}
			w := &stateWalker{loader: loader, pkg: pkg, obj: obj, name: name.Name}
			w.prepare(fd.Body)
			w.walkStmts(fd.Body.List, &statePath{})
			for _, lit := range w.closures {
				w.walkStmts(lit.Body.List, &statePath{snapshotted: true})
			}
			diags = append(diags, w.diags...)
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			track(f.Names)
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			track(f.Names)
		}
	}
	return diags
}

// statePath is the per-path dataflow state for one tracked value.
type statePath struct {
	snapshotted bool // a Snapshot() of the value was taken on this path
	mutated     bool // an unreverted (possible) mutation happened
	failed      bool // a failure receipt status was stamped on this path
}

func (p *statePath) copy() *statePath { c := *p; return &c }

type stateWalker struct {
	loader    *Loader
	pkg       *Package
	obj       types.Object // the tracked state value
	name      string
	reverting bool                  // function uses RevertToSnapshot on obj anywhere
	reverters map[types.Object]bool // local closures whose body reverts obj
	closures  []*ast.FuncLit        // every function literal, walked as its own scope
	diags     []Diagnostic
	reported  bool
}

// prepare pre-scans the whole body (closures included) to learn whether the
// function participates in the revert discipline and which local closures
// act as revert helpers.
func (w *stateWalker) prepare(body *ast.BlockStmt) {
	w.reverters = map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.closures = append(w.closures, n)
		case *ast.CallExpr:
			if w.methodOn(n) == "RevertToSnapshot" {
				w.reverting = true
			}
		case *ast.AssignStmt:
			// name := func(...) { ... obj.RevertToSnapshot(...) ... }
			for i, rhs := range n.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				reverts := false
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && w.methodOn(call) == "RevertToSnapshot" {
						reverts = true
					}
					return true
				})
				if reverts {
					if obj := w.pkg.Info.Defs[id]; obj != nil {
						w.reverters[obj] = true
					}
				}
			}
		}
		return true
	})
}

// methodOn returns the method name if call is obj.Method(...), else "".
func (w *stateWalker) methodOn(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || w.pkg.Info.Uses[id] != w.obj {
		return ""
	}
	return sel.Sel.Name
}

func (w *stateWalker) walkStmts(list []ast.Stmt, p *statePath) {
	for _, s := range list {
		w.walkStmt(s, p)
	}
}

func (w *stateWalker) walkStmt(s ast.Stmt, p *statePath) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.scanExpr(s.X, p)
	case *ast.BlockStmt:
		w.walkStmts(s.List, p)
	case *ast.IfStmt:
		preMutated := p.mutated
		w.walkStmt(s.Init, p)
		w.scanExpr(s.Cond, p)
		body := p.copy()
		// `if err := st.Mutate(...); err != nil { ... }`: the mutators are
		// atomic (a failed AddBalance changes nothing), so the error arm
		// runs with the pre-call mutation state.
		if w.atomicMutatorGuard(s) {
			body.mutated = preMutated
		}
		w.walkStmts(s.Body.List, body)
		if s.Else != nil {
			w.walkStmt(s.Else, p.copy())
		}
	case *ast.ForStmt:
		inner := p.copy()
		w.walkStmt(s.Init, inner)
		if s.Cond != nil {
			w.scanExpr(s.Cond, inner)
		}
		w.walkStmts(s.Body.List, inner)
		w.walkStmt(s.Post, inner)
	case *ast.RangeStmt:
		w.scanExpr(s.X, p)
		w.walkStmts(s.Body.List, p.copy())
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, p)
		if s.Tag != nil {
			w.scanExpr(s.Tag, p)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, p.copy())
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, p)
		w.walkStmt(s.Assign, p)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, p.copy())
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				inner := p.copy()
				w.walkStmt(cc.Comm, inner)
				w.walkStmts(cc.Body, inner)
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, p)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, p)
		}
		if w.stampsFailure(s) {
			p.failed = true
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, p)
		}
		if p.mutated && (p.failed || w.failureReturn(s)) {
			w.report(s.Pos(), fmt.Sprintf(
				"failure return leaks mutations of %s: no RevertToSnapshot on this path (snapshot before the first mutation and revert before reporting failure)",
				w.name))
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, p)
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred/spawned work runs with its own (unknowable) path state.
	case *ast.DeclStmt:
		w.scanExpr(s.Decl, p)
	default:
		w.scanExpr(s, p)
	}
}

// scanExpr applies call classification in source order. Function literals
// are skipped; they are walked separately as their own scopes.
func (w *stateWalker) scanExpr(n ast.Node, p *statePath) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.classifyCall(c, p)
		}
		return true
	})
}

func (w *stateWalker) classifyCall(call *ast.CallExpr, p *statePath) {
	switch name := w.methodOn(call); {
	case name == "Snapshot":
		p.snapshotted = true
		return
	case name == "RevertToSnapshot":
		p.mutated = false
		return
	case statesafeMutators[name]:
		if w.reverting && !p.snapshotted {
			w.report(call.Pos(), fmt.Sprintf(
				"%s.%s() mutates the state before any Snapshot: the revert paths below cannot restore the entry state (take the snapshot first)",
				w.name, name))
		}
		p.mutated = true
		return
	case name != "":
		return // read-only method on the tracked value
	}
	// Call to a local revert-helper closure.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := w.pkg.Info.Uses[id]; obj != nil && w.reverters[obj] {
			p.mutated = false
			return
		}
	}
	// Any other call that receives the tracked value may mutate it.
	for _, arg := range call.Args {
		if w.mentionsTracked(arg) {
			p.mutated = true
			return
		}
	}
}

// mentionsTracked reports whether the expression uses the tracked value as
// a first-class value (not merely as the receiver of a method call, which
// classifyCall already handles).
func (w *stateWalker) mentionsTracked(n ast.Expr) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			if w.methodOn(call) != "" {
				for _, arg := range call.Args {
					if w.mentionsTracked(arg) {
						found = true
					}
				}
				return false
			}
		}
		if id, ok := c.(*ast.Ident); ok && w.pkg.Info.Uses[id] == w.obj {
			found = true
		}
		return true
	})
	return found
}

// atomicMutatorGuard recognizes `if err := obj.Mutator(...); err != nil`.
func (w *stateWalker) atomicMutatorGuard(s *ast.IfStmt) bool {
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || len(init.Rhs) != 1 {
		return false
	}
	call, ok := init.Rhs[0].(*ast.CallExpr)
	if !ok || !statesafeMutators[w.methodOn(call)] {
		return false
	}
	cond, ok := s.Cond.(*ast.BinaryExpr)
	return ok && cond.Op == token.NEQ && isNilCheck(cond)
}

func isNilCheck(cond *ast.BinaryExpr) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isNil(cond.X) || isNil(cond.Y)
}

// stampsFailure recognizes assignments that stamp a failure receipt status
// (`r.Status = types.ReceiptInvalid`).
func (w *stateWalker) stampsFailure(s *ast.AssignStmt) bool {
	for _, rhs := range s.Rhs {
		if mentionsFailStatus(rhs) {
			return true
		}
	}
	return false
}

func mentionsFailStatus(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		// A closure stamping a failure status runs in its own scope (it is
		// walked separately); assigning the closure is not itself failing.
		if _, isLit := c.(*ast.FuncLit); isLit {
			return false
		}
		name := ""
		switch c := c.(type) {
		case *ast.Ident:
			name = c.Name
		case *ast.SelectorExpr:
			name = c.Sel.Name
		}
		if statesafeFailStatus[name] {
			found = true
		}
		return true
	})
	return found
}

// failureReturn classifies a return statement as reporting failure: a
// result that is a non-nil error-typed identifier, a direct errors.New /
// fmt.Errorf construction, or a value carrying a failure receipt status.
func (w *stateWalker) failureReturn(s *ast.ReturnStmt) bool {
	for _, e := range s.Results {
		if mentionsFailStatus(e) {
			return true
		}
		switch e := e.(type) {
		case *ast.Ident:
			if e.Name == "nil" {
				continue
			}
			if t := w.pkg.Info.TypeOf(e); t != nil && isErrorType(t) {
				return true
			}
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				if pkgID, ok := sel.X.(*ast.Ident); ok {
					if (pkgID.Name == "errors" && sel.Sel.Name == "New") ||
						(pkgID.Name == "fmt" && sel.Sel.Name == "Errorf") {
						return true
					}
				}
			}
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func (w *stateWalker) report(pos token.Pos, msg string) {
	if w.reported {
		return
	}
	w.reported = true
	file, line, col := posOf(w.loader, w.pkg, pos)
	w.diags = append(w.diags, Diagnostic{
		File: file, Line: line, Col: col,
		Analyzer: "statesafe", Message: msg,
	})
}
