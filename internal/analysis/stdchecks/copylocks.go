// Package stdchecks reimplements the go vet passes the ROADMAP's lint
// tier needs — copylocks, atomic and a basic nilness — on
// the repo's own analysis framework, so `make lint` is one binary
// invocation instead of vet-plus-N-tools. They are deliberately small:
// each covers the patterns that occur (or must never occur) in this
// codebase, not the full generality of the upstream passes.
package stdchecks

import (
	"go/ast"
	"go/token"
	"go/types"

	"bluefi/internal/analysis/framework"
)

// Copylocks flags values containing sync primitives being copied: by
// assignment from an existing value, by being passed or returned by
// value, or by a range statement's value variable. The root Pool and
// the a2dp Scheduler both embed sync.Mutex; copying one silently forks
// the lock.
var Copylocks = &framework.Analyzer{
	Name: "copylocks",
	Doc:  "flag copies of values containing sync.Mutex and friends",
	Run:  runCopylocks,
}

var lockNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true, "Pool": true, "Map": true,
}

// containsLock reports whether t (not a pointer to t) embeds a sync
// primitive by value.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockNames[obj.Name()] {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

func lockType(pass *framework.Pass, expr ast.Expr) (types.Type, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return nil, false
	}
	if containsLock(tv.Type, nil) {
		return tv.Type, true
	}
	return nil, false
}

// copiesValue reports whether expr produces a copy of an existing value
// (as opposed to a fresh composite literal or a call result, which are
// the canonical non-copy initialisers).
func copiesValue(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	case *ast.UnaryExpr:
		return e.Op == token.ARROW // <-ch copies the received value
	}
	return false
}

func runCopylocks(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkFuncSig(pass, n.Type)
				checkFieldList(pass, n.Recv, "receiver")
			case *ast.FuncLit:
				checkFuncSig(pass, n.Type)
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					// A copy discarded into _ cannot be misused.
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
					if !copiesValue(rhs) {
						continue
					}
					if t, ok := lockType(pass, rhs); ok {
						pass.Reportf(n.Pos(), "assignment copies lock value: %s contains a sync primitive; use a pointer", t)
					}
				}
			case *ast.RangeStmt:
				// The value variable is a definition, so its type comes
				// from Defs, not Types.
				id, ok := n.Value.(*ast.Ident)
				if !ok || id.Name == "_" {
					return true
				}
				if obj := pass.TypesInfo.Defs[id]; obj != nil && containsLock(obj.Type(), nil) {
					pass.Reportf(id.Pos(), "range value copies lock value: %s contains a sync primitive; range over indices or pointers", obj.Type())
				}
			}
			return true
		})
	}
	return nil
}

func checkFuncSig(pass *framework.Pass, ft *ast.FuncType) {
	checkFieldList(pass, ft.Params, "parameter")
	checkFieldList(pass, ft.Results, "result")
}

func checkFieldList(pass *framework.Pass, fl *ast.FieldList, what string) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if containsLock(tv.Type, nil) {
			pass.Reportf(field.Type.Pos(), "%s passes lock by value: %s contains a sync primitive; use a pointer", what, tv.Type)
		}
	}
}
