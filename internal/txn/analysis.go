package txn

import (
	"fmt"
	"slices"
	"sort"
)

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

// Analysis holds the slice-indexed static facts about a program that
// every rollback strategy reads: its lock requests, each op's lock
// index and the locals resolved to dense slots. The §4 write-interval
// facts live apart, in Writes, because only the single-copy strategy
// and the §5 structure measures need them.
type Analysis struct {
	// Requests lists the program's lock requests in order; the k-th
	// entry has LockIndex k.
	Requests []LockRequest
	// LockIndexOf[i] is the lock index of Ops[i]: the number of lock
	// requests strictly before op i.
	LockIndexOf []int

	// The fields below are the execution plan for the allocation-free
	// hot path: locals resolved to dense slots at analysis time, so
	// Step indexes a slice instead of hashing strings. Expressions stay
	// in tree form — every driver registers a program exactly once, so
	// value.EvalSlots over the tree beats any per-Register compilation.

	// LocalNames lists the program's local variables in slot order
	// (sorted by name); LocalSlot is the inverse mapping.
	LocalNames []string
	LocalSlot  map[string]int
	// InitLocals[s] is the declared initial value of slot s.
	InitLocals []int64
	// OpLocalSlot[i] is the slot of the local a Read or Compute op i
	// assigns, or -1 for every other op (and for an undeclared local).
	OpLocalSlot []int
}

// Analyze computes the static Analysis for p. The program is assumed
// valid (see Validate); on an invalid program the returned analysis is
// best-effort. It is a thin wrapper over ValidateAnalyze.
func Analyze(p *Program) *Analysis {
	a, _ := ValidateAnalyze(p)
	return a
}

// ValidateAnalyze checks p against the §2 static rules (see Validate
// for the full list) and computes its Analysis in the same traversal of
// p.Ops.
//
// The analysis is always returned, complete to the extent the program
// allows; the error is the first rule violation, exactly as Validate
// reports it.
func ValidateAnalyze(p *Program) (*Analysis, error) {
	n := len(p.Ops)
	locks := 0
	for i := range p.Ops {
		if p.Ops[i].Kind.IsLockRequest() {
			locks++
		}
	}
	// LockIndexOf and OpLocalSlot share one backing array.
	perOp := make([]int, 2*n)
	a := &Analysis{
		Requests:    make([]LockRequest, 0, locks),
		LockIndexOf: perOp[:n:n],
		OpLocalSlot: perOp[n:],
	}
	a.LocalNames = make([]string, 0, len(p.Locals))
	for name := range p.Locals {
		a.LocalNames = append(a.LocalNames, name)
	}
	sort.Strings(a.LocalNames)
	a.LocalSlot = make(map[string]int, len(a.LocalNames))
	a.InitLocals = make([]int64, len(a.LocalNames))
	for s, name := range a.LocalNames {
		a.LocalSlot[name] = s
		a.InitLocals[s] = p.Locals[name]
	}
	return a, check(p, a)
}

// check applies the §2 static rules to p and, when a is non-nil, fills
// a's per-op fields and lock requests as it goes. Lock holdings are
// tracked in a small slice instead of a map, and expression references
// are checked by walking the tree directly instead of materializing a
// reference list, so with a nil a a valid program that holds at most
// eight locks at once is checked without allocating.
func check(p *Program, a *Analysis) error {
	var firstErr error
	if p.Name == "" {
		firstErr = fmt.Errorf("txn: program must have a name")
	}
	// held tracks current lock holdings as a slice: programs lock a
	// handful of entities, so a linear scan beats a map and allocates
	// nothing beyond the one backing array.
	type heldLock struct {
		entity string
		kind   OpKind
	}
	held := make([]heldLock, 0, 8)
	findHeld := func(entity string) int {
		for k := range held {
			if held[k].entity == entity {
				return k
			}
		}
		return -1
	}
	unlocked := false
	declaredLast := false
	seenLock := false
	li := 0
	for i, o := range p.Ops {
		fail := func(format string, args ...any) {
			if firstErr == nil {
				firstErr = fmt.Errorf("txn %s: op %d (%s): %s", p.Name, i, o, fmt.Sprintf(format, args...))
			}
		}
		// assign resolves the local that a Read or Compute op sets.
		assign := func(kind string) {
			if a == nil {
				if _, ok := p.Locals[o.Local]; ok {
					return
				}
			} else if s, ok := a.LocalSlot[o.Local]; ok {
				a.OpLocalSlot[i] = s
				return
			}
			fail("%s into undeclared local %q", kind, o.Local)
		}
		if a != nil {
			a.LockIndexOf[i] = li
			a.OpLocalSlot[i] = -1
		}
		if i != len(p.Ops)-1 && o.Kind == OpCommit {
			fail("Commit before end of program")
		}
		switch o.Kind {
		case OpLockS, OpLockX:
			if unlocked {
				fail("lock request after unlock violates two-phase rule")
			}
			if _, clash := p.Locals[o.Entity]; clash {
				// Writes tracks write targets by name; entity and local
				// namespaces must therefore be disjoint.
				fail("entity %q collides with a local variable name", o.Entity)
			}
			if declaredLast {
				fail("lock request after DeclareLastLock")
			}
			if findHeld(o.Entity) >= 0 {
				fail("entity %q already locked", o.Entity)
			}
			if o.Entity == "" {
				fail("lock request without entity")
			}
			held = append(held, heldLock{entity: o.Entity, kind: o.Kind})
			seenLock = true
			if a != nil {
				a.Requests = append(a.Requests, LockRequest{
					OpIndex:   i,
					Entity:    o.Entity,
					Exclusive: o.Kind == OpLockX,
					LockIndex: li,
				})
			}
			li++
		case OpUnlock:
			if k := findHeld(o.Entity); k < 0 {
				fail("unlock of entity %q not held", o.Entity)
			} else {
				held = append(held[:k], held[k+1:]...)
			}
			unlocked = true
		case OpRead:
			if findHeld(o.Entity) < 0 {
				fail("read of unlocked entity %q", o.Entity)
			}
			assign("read")
		case OpWrite:
			if !seenLock {
				fail("write before first lock request")
			}
			if k := findHeld(o.Entity); k < 0 || held[k].kind != OpLockX {
				fail("write to entity %q requires a held exclusive lock", o.Entity)
			}
			if err := checkRefs(p, o.Expr); err != nil {
				fail("%v", err)
			}
		case OpCompute:
			if !seenLock {
				fail("compute before first lock request")
			}
			assign("compute")
			if err := checkRefs(p, o.Expr); err != nil {
				fail("%v", err)
			}
		case OpDeclareLastLock:
			if declaredLast {
				fail("DeclareLastLock repeated")
			}
			declaredLast = true
		case OpCommit:
			// position checked above
		default:
			fail("unknown op kind")
		}
	}
	if firstErr == nil && (len(p.Ops) == 0 || p.Ops[len(p.Ops)-1].Kind != OpCommit) {
		firstErr = fmt.Errorf("txn %s: program must end with Commit", p.Name)
	}
	return firstErr
}

// Writes holds the §4 write-interval facts of a program: for every
// write target (entity or local), the lock indexes at which it is
// written. Only the single-copy strategy (SDG, and Hybrid built on it)
// and the §5 structure measures read them, so they are built on demand
// by Analysis.Writes rather than by every registration.
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

// Writes computes the write-interval facts of p, which must be the
// program a was computed from. A read assigns its destination local, so
// it counts as a local write for rollback purposes.
func (a *Analysis) Writes(p *Program) *Writes {
	w := &Writes{
		EntityLockIndex:     make(map[string]int, len(a.Requests)),
		FirstWriteLockIndex: map[string]int{},
		WriteLockIndexes:    map[string][]int{},
		OpTarget:            make([]string, len(p.Ops)),
		numLocks:            len(a.Requests),
	}
	for _, r := range a.Requests {
		w.EntityLockIndex[r.Entity] = r.LockIndex
	}
	for i, o := range p.Ops {
		switch o.Kind {
		case OpRead, OpCompute:
			w.note(o.Local, a.LockIndexOf[i])
			w.OpTarget[i] = "l:" + o.Local
		case OpWrite:
			w.note(o.Entity, a.LockIndexOf[i])
			w.OpTarget[i] = "e:" + o.Entity
		}
	}
	return w
}

// AnalyzeWrites computes p's write-interval facts from scratch:
// Analyze(p).Writes(p), for callers that need nothing else.
func AnalyzeWrites(p *Program) *Writes { return Analyze(p).Writes(p) }

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
