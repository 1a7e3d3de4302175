package txn

import "slices"

// LockRequest describes one lock request site in a program.
type LockRequest struct {
	// OpIndex is the position of the request in Program.Ops.
	OpIndex int
	// Entity is the requested entity.
	Entity string
	// Exclusive is true for LockX.
	Exclusive bool
	// LockIndex is the number of lock requests strictly before this
	// one; equivalently, the index of the lock state immediately
	// preceding the request (paper §4).
	LockIndex int
}

// Analysis holds the static facts about a program's lock structure: its
// lock requests. The §4 write-interval facts live apart, in Writes,
// because only the single-copy strategy and the §5 structure measures
// need them. The engine reads no Analysis: it runs the program's
// executable form (Exec), whose expressions are compiled over local
// slots by Compile or, on the node, by the wire decoder.
type Analysis struct {
	// Requests lists the program's lock requests in order; the k-th
	// entry has LockIndex k.
	Requests []LockRequest
}

// Analyze computes the static Analysis for p. The program is assumed
// valid (see Validate); on an invalid program the returned analysis is
// best-effort.
func Analyze(p *Program) *Analysis {
	a := &Analysis{}
	for i, o := range p.Ops {
		if o.Kind.IsLockRequest() {
			a.Requests = append(a.Requests, LockRequest{
				OpIndex:   i,
				Entity:    o.Entity,
				Exclusive: o.Kind == OpLockX,
				LockIndex: len(a.Requests),
			})
		}
	}
	return a
}

// Writes holds the §4 write-interval facts of a program: for every
// write target (entity or local), the lock indexes at which it is
// written. Only the single-copy strategy (SDG, and Hybrid built on it)
// and the §5 structure measures read them, so they are built on demand
// (Exec.Writes) rather than by every registration.
type Writes struct {
	// EntityLockIndex maps each locked entity to the LockIndex of its
	// request.
	EntityLockIndex map[string]int
	// FirstWriteLockIndex maps each written target (entity or local) to
	// the lock index of its first write; the paper's index of
	// restorability is this minus one.
	FirstWriteLockIndex map[string]int
	// WriteLockIndexes maps each written target to the sorted distinct
	// lock indexes at which it is written.
	WriteLockIndexes map[string][]int
	// OpTarget[i] is the state-dependency-graph write-target key of op
	// i ("e:<entity>" for entity writes, "l:<local>" for local writes,
	// "" when op i writes nothing) — precomputed so the step path does
	// not concatenate strings per write.
	OpTarget []string

	numLocks int
}

// AnalyzeWrites computes p's write-interval facts (Exec.Writes of its
// executable form).
func AnalyzeWrites(p *Program) *Writes { return Compile(p).Writes() }

// note records a write of target at lock index li. Ops are visited in
// program order, where lock indexes never decrease, so each target's
// index list stays sorted and only the last entry can repeat li.
func (w *Writes) note(target string, li int) {
	if _, ok := w.FirstWriteLockIndex[target]; !ok {
		w.FirstWriteLockIndex[target] = li
	}
	idxs := w.WriteLockIndexes[target]
	if n := len(idxs); n == 0 || idxs[n-1] != li {
		w.WriteLockIndexes[target] = append(idxs, li)
	}
}

// NumLocks returns the number of lock requests in the program.
func (a *Analysis) NumLocks() int { return len(a.Requests) }

// RestorabilityIndex returns the paper's index of restorability for the
// given write target: the lock index of the last lock state preceding
// its first write, i.e. FirstWriteLockIndex-1. The second result is
// false if the target is never written (every state is restorable for
// it).
func (w *Writes) RestorabilityIndex(target string) (int, bool) {
	u, ok := w.FirstWriteLockIndex[target]
	if !ok {
		return 0, false
	}
	return u - 1, true
}

// StaticWellDefined reports, for the completed program (all n lock
// requests executed), which lock states q in [0, n] are well defined
// under the single-copy (state-dependency-graph) strategy: q is
// undefined iff some target has first write at lock index u <= q and a
// later write at lock index j > q (Theorem 4 with the half-open write
// intervals derived in DESIGN.md §2).
func (w *Writes) StaticWellDefined() []bool {
	n := w.numLocks
	wd := make([]bool, n+1)
	for q := range wd {
		wd[q] = true
	}
	for _, idxs := range w.WriteLockIndexes {
		if len(idxs) == 0 {
			continue
		}
		u := idxs[0]
		j := idxs[len(idxs)-1]
		// States q with u <= q < j are destroyed.
		for q := u; q < j && q <= n; q++ {
			if q >= 0 {
				wd[q] = false
			}
		}
	}
	return wd
}

// WellDefinedCount returns how many of the n+1 lock states of the
// completed program are well defined (including the trivial state 0).
func (w *Writes) WellDefinedCount() int {
	count := 0
	for _, ok := range w.StaticWellDefined() {
		if ok {
			count++
		}
	}
	return count
}

// ClusteringIndex measures how tightly a program clusters its writes
// per target (§5): it returns the total number of destroyed lock
// states, summed over write targets. Zero means perfectly clustered
// (every target's writes fall within one lock interval); larger values
// mean writes are scattered across lock states.
func (w *Writes) ClusteringIndex() int {
	total := 0
	for _, idxs := range w.WriteLockIndexes {
		if len(idxs) > 1 {
			total += idxs[len(idxs)-1] - idxs[0]
		}
	}
	return total
}

// IsThreePhase reports whether the program has the §5 three-phase
// structure: an acquisition phase (lock requests, reads into locals),
// then DeclareLastLock, then an update phase in which every *entity*
// write occurs (§5: "waits to perform write operations to any entity
// until after it performs its last lock request"), then the release
// phase. Reads during acquisition assign locals and are permitted.
func IsThreePhase(p *Program) bool {
	a := Analyze(p)
	n := a.NumLocks()
	declared := false
	li := 0
	for _, o := range p.Ops {
		switch o.Kind {
		case OpDeclareLastLock:
			declared = true
		case OpLockS, OpLockX:
			li++
		case OpWrite:
			if li != n || !declared {
				return false
			}
		}
	}
	return declared
}

// LockSet returns the entities locked by the program, sorted and
// without duplicates.
func (a *Analysis) LockSet() []string {
	out := make([]string, len(a.Requests))
	for i, r := range a.Requests {
		out[i] = r.Entity
	}
	slices.Sort(out)
	return slices.Compact(out)
}
