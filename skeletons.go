package skandium

import (
	"skandium/internal/skel"
)

// Skeleton is a typed parallelism pattern transforming P into R. Skeletons
// are immutable and freely shareable; compose them with the constructors
// below and execute them with a Stream.
type Skeleton[P, R any] struct{ n *skel.Node }

// Node exposes the erased skeleton tree (for tooling: ADG dumps, planning).
func (s Skeleton[P, R]) Node() *skel.Node { return s.n }

// String renders the program in the paper's syntax, e.g.
// "map(fs, map(fs, seq(fe), fm), fm)".
func (s Skeleton[P, R]) String() string { return s.n.String() }

// Seq builds seq(fe): the leaf skeleton wrapping one Execution muscle.
func Seq[P, R any](fe Exec[P, R]) Skeleton[P, R] {
	return Skeleton[P, R]{n: skel.NewSeq(fe.m)}
}

// Farm builds farm(∆): task replication — many inputs of one Stream are
// processed concurrently by the nested skeleton.
func Farm[P, R any](sub Skeleton[P, R]) Skeleton[P, R] {
	return Skeleton[P, R]{n: skel.NewFarm(sub.n)}
}

// Pipe builds pipe(∆1,∆2): staged computation.
func Pipe[P, X, R any](s1 Skeleton[P, X], s2 Skeleton[X, R]) Skeleton[P, R] {
	return Skeleton[P, R]{n: skel.NewPipe(s1.n, s2.n)}
}

// Pipe3 builds a three-stage pipe (a convenience over nested Pipe calls
// that keeps a single pipe node, matching pipe(∆1,∆2,∆3)).
func Pipe3[P, X, Y, R any](s1 Skeleton[P, X], s2 Skeleton[X, Y], s3 Skeleton[Y, R]) Skeleton[P, R] {
	return Skeleton[P, R]{n: skel.NewPipe(s1.n, s2.n, s3.n)}
}

// PipeN builds an n-stage pipe of same-typed stages.
func PipeN[P any](stages ...Skeleton[P, P]) Skeleton[P, P] {
	ns := make([]*skel.Node, len(stages))
	for i, s := range stages {
		ns[i] = s.n
	}
	return Skeleton[P, P]{n: skel.NewPipe(ns...)}
}

// While builds while(fc,∆): repeat ∆ while fc holds.
func While[P any](fc Cond[P], body Skeleton[P, P]) Skeleton[P, P] {
	return Skeleton[P, P]{n: skel.NewWhile(fc.m, body.n)}
}

// If builds if(fc,∆true,∆false): conditional branching. Note that the
// paper's autonomic layer treats If as experimental (worst-case-branch
// planning); the engine runs it normally.
func If[P, R any](fc Cond[P], onTrue, onFalse Skeleton[P, R]) Skeleton[P, R] {
	return Skeleton[P, R]{n: skel.NewIf(fc.m, onTrue.n, onFalse.n)}
}

// For builds for(n,∆): execute ∆ exactly n times.
func For[P any](n int, body Skeleton[P, P]) Skeleton[P, P] {
	return Skeleton[P, P]{n: skel.NewFor(n, body.n)}
}

// Map builds map(fs,∆,fm): split, apply ∆ to every sub-problem in
// parallel, merge.
func Map[P, X, Y, R any](fs Split[P, X], sub Skeleton[X, Y], fm Merge[Y, R]) Skeleton[P, R] {
	return Skeleton[P, R]{n: skel.NewMap(fs.m, sub.n, fm.m)}
}

// Fork builds fork(fs,{∆},fm): like Map, but sub-problem i is processed by
// subs[i]. The split must produce exactly len(subs) sub-problems at run
// time. The paper's autonomic layer treats Fork as experimental.
func Fork[P, X, Y, R any](fs Split[P, X], subs []Skeleton[X, Y], fm Merge[Y, R]) Skeleton[P, R] {
	ns := make([]*skel.Node, len(subs))
	for i, s := range subs {
		ns[i] = s.n
	}
	return Skeleton[P, R]{n: skel.NewFork(fs.m, ns, fm.m)}
}

// DaC builds d&c(fc,fs,∆,fm): while fc holds, split and recurse in
// parallel, then merge; when fc fails, solve the leaf with ∆.
func DaC[P, R any](fc Cond[P], fs Split[P, P], sub Skeleton[P, R], fm Merge[R, R]) Skeleton[P, R] {
	return Skeleton[P, R]{n: skel.NewDaC(fc.m, fs.m, sub.n, fm.m)}
}
