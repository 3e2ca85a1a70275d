package lint

import (
	"go/ast"
	"go/token"
)

// LockOrder enforces the base station's documented lock ordering:
//
//	shard.mu -> b.mu -> sched.mu
//
// (see internal/core/shard.go and the Base struct comment). A shard's mu may
// be held while taking b.mu or the lease scheduler's lock, never the other
// way around, and no path may hold two shard locks at once. The check is
// purely syntactic and per-function: it tracks a held-set through the
// statement stream, classifying each mu by idiom — `x.mu` on a *Base receiver
// is b.mu, on a *Scheduler receiver is sched.mu, and a mu reached through a
// `shard(...)` result or a `shards` slice element is a shard lock. Method
// calls through a `.nodes` or `.sched` field are treated as transiently
// acquiring the corresponding lock class, so `b.nodes.snapshot()` under b.mu is
// flagged even though the Lock call lives in another function.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the shard.mu -> b.mu -> sched.mu lock ordering of the base station",
	Run:  runLockOrder,
}

// Lock ranks: lower ranks must be acquired first.
const (
	rankShard = iota // a nodeShard's mu
	rankBase         // Base.mu, the config lock
	rankSched        // lease.Scheduler's mu
)

var rankName = map[int]string{rankShard: "shard.mu", rankBase: "b.mu", rankSched: "sched.mu"}

type heldLock struct {
	rank int
	pos  token.Pos
}

func runLockOrder(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockOrder(p, fn)
		}
	}
}

func checkLockOrder(p *Pass, fn *ast.FuncDecl) {
	recvName, recvType := "", ""
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		recvType = recvTypeName(fn.Recv.List[0].Type)
		if len(fn.Recv.List[0].Names) > 0 {
			recvName = fn.Recv.List[0].Names[0].Name
		}
	}
	shardVars := collectShardVars(fn.Body)

	// classify maps the receiver expression of a mu to a lock rank, -1 when
	// the mu is not one of the ranked classes.
	classify := func(muRecv ast.Expr) int {
		switch x := muRecv.(type) {
		case *ast.Ident:
			if shardVars[x.Name] {
				return rankShard
			}
			if x.Name == recvName {
				switch recvType {
				case "Base":
					return rankBase
				case "Scheduler":
					return rankSched
				}
			}
		case *ast.IndexExpr: // t.shards[i].mu
			if sel, ok := x.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "shards" {
				return rankShard
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				return -1
			}
		}
		return -1
	}

	var scan func(body ast.Node)
	scan = func(body ast.Node) {
		var held []heldLock
		acquire := func(rank int, pos token.Pos, transient bool) {
			for _, h := range held {
				if h.rank > rank || (h.rank == rank && rank == rankShard) {
					p.Reportf(pos, "acquiring %s while %s is held violates the lock order shard.mu -> b.mu -> sched.mu",
						rankName[rank], rankName[h.rank])
					break
				}
			}
			if !transient {
				held = append(held, heldLock{rank: rank, pos: pos})
			}
		}
		release := func(rank int) {
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].rank == rank {
					held = append(held[:i], held[i+1:]...)
					return
				}
			}
		}

		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				// A deferred Unlock keeps the lock held for the rest of the
				// function; deferred closures run after everything else, so
				// the linear scan skips their bodies entirely.
				return false
			case *ast.FuncLit:
				// A closure body runs at some other time (goroutine,
				// callback); analyze it with a fresh held-set rather than
				// inheriting the enclosing function's.
				scan(n.Body)
				return false
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if mu, ok := sel.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
						if rank := classify(mu.X); rank >= 0 {
							acquire(rank, sel.Pos(), false)
						}
					}
				case "Unlock", "RUnlock":
					if mu, ok := sel.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
						if rank := classify(mu.X); rank >= 0 {
							release(rank)
						}
					}
				case "shard":
					// Pure accessor: returns the shard without locking it.
				default:
					// Method calls through the node table or the scheduler
					// acquire and release that class internally.
					if via, ok := sel.X.(*ast.SelectorExpr); ok {
						switch via.Sel.Name {
						case "nodes":
							acquire(rankShard, sel.Pos(), true)
						case "sched":
							acquire(rankSched, sel.Pos(), true)
						}
					}
				}
			}
			return true
		})
	}
	scan(fn.Body)
}

// collectShardVars finds local variables bound to a single shard: assigned
// from a method call named shard(...) or from an element of a field named
// shards. Their mu is a shard lock.
func collectShardVars(body *ast.BlockStmt) map[string]bool {
	vars := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || i >= len(assign.Rhs) {
				continue
			}
			if isShardExpr(assign.Rhs[i]) {
				vars[id.Name] = true
			}
		}
		return true
	})
	return vars
}

func isShardExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "shard"
		}
	case *ast.UnaryExpr:
		return x.Op == token.AND && isShardExpr(x.X)
	case *ast.IndexExpr:
		if sel, ok := x.X.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "shards"
		}
	}
	return false
}
