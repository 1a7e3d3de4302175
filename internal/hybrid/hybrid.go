// Package hybrid implements the extension the paper closes with: "the
// state-dependency graph implementation of partial rollback can easily
// be extended to allow more than one local copy to be kept for
// entities. The problem of determining how to allocate a bounded amount
// of extra storage to the entities in order to maximize the number of
// well-defined states ... remains another interesting question."
//
// The K-copy strategy keeps the single-copy machinery (internal/sdg)
// plus up to Budget *checkpoints*: full snapshots of the transaction's
// locals and entity copies taken at chosen lock states. A checkpointed
// state is restorable even when write intervals span it, so the
// rollback target can sit between "latest well-defined state" (budget
// 0, pure SDG) and "ideal state" (unbounded, pure MCS).
//
// Allocators decide which lock states to checkpoint, using the
// program's static analysis (programs are static in this model, so the
// destroyed-state set is known up front).
package hybrid

import (
	"fmt"
	"sort"

	"partialrollback/internal/intern"
	"partialrollback/internal/sdg"
	"partialrollback/internal/txn"
)

// EntityCopy is one checkpointed entity local copy, keyed by the
// entity's interned ID.
type EntityCopy struct {
	Ent intern.ID
	Val int64
}

// Checkpoint is a full restoration point for one lock state. It stores
// the engine's slot/ID representation directly — locals by slot index,
// entity copies by intern ID — so taking and restoring a checkpoint
// never touches entity or local names.
type Checkpoint struct {
	// Locals holds every local variable's value at the state, indexed
	// by the program's local slot.
	Locals []int64
	// Copies holds the local copy of every exclusively held entity at
	// the state.
	Copies []EntityCopy
}

// size returns the number of stored values (the "extra copies" the
// paper's budget counts).
func (c Checkpoint) size() int { return len(c.Locals) + len(c.Copies) }

// Allocator chooses which lock states (of 1..n-1; 0 and n are free) to
// checkpoint, given the program's write analysis and a budget of
// checkpoints.
type Allocator interface {
	Name() string
	// Choose returns the lock states to checkpoint, at most budget of
	// them, sorted ascending.
	Choose(w *txn.Writes, budget int) []int
}

// destroyedStates returns the statically destroyed interior lock
// states, ascending.
func destroyedStates(w *txn.Writes) []int {
	wd := w.StaticWellDefined()
	var out []int
	for q := 1; q < len(wd)-1; q++ {
		if !wd[q] {
			out = append(out, q)
		}
	}
	return out
}

// Spaced picks evenly spaced destroyed states — the naive allocation.
type Spaced struct{}

// Name implements Allocator.
func (Spaced) Name() string { return "spaced" }

// Choose implements Allocator.
func (Spaced) Choose(w *txn.Writes, budget int) []int {
	d := destroyedStates(w)
	if budget <= 0 || len(d) == 0 {
		return nil
	}
	if budget >= len(d) {
		return d
	}
	out := make([]int, 0, budget)
	for i := 0; i < budget; i++ {
		out = append(out, d[(i*len(d))/budget+(len(d)/budget)/2])
	}
	sort.Ints(out)
	return dedupe(out)
}

// MinGap greedily picks destroyed states to minimize the summed
// rollback overshoot: for each state s, the overshoot is the distance
// from s down to the nearest restorable state; MinGap repeatedly
// repairs the state whose repair reduces that sum most.
type MinGap struct{}

// Name implements Allocator.
func (MinGap) Name() string { return "min-gap" }

// Choose implements Allocator.
func (MinGap) Choose(w *txn.Writes, budget int) []int {
	wd := w.StaticWellDefined()
	n := len(wd) - 1
	restorable := make([]bool, n+1)
	copy(restorable, wd)
	cost := func() int {
		sum := 0
		last := 0
		for q := 0; q <= n; q++ {
			if restorable[q] {
				last = q
			}
			sum += q - last
		}
		return sum
	}
	var chosen []int
	for len(chosen) < budget {
		base := cost()
		best, bestGain := -1, 0
		for q := 1; q < n; q++ {
			if restorable[q] {
				continue
			}
			restorable[q] = true
			if gain := base - cost(); gain > bestGain {
				best, bestGain = q, gain
			}
			restorable[q] = false
		}
		if best < 0 {
			break
		}
		restorable[best] = true
		chosen = append(chosen, best)
	}
	sort.Ints(chosen)
	return chosen
}

func dedupe(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// State is the per-transaction hybrid bookkeeping: an SDG plus planned
// and taken checkpoints.
type State struct {
	sdg         *sdg.Graph
	planned     map[int]bool
	checkpoints map[int]Checkpoint
	peakCopies  int
}

// New creates hybrid state for a program: the allocator plans
// checkpoint states from the program's write analysis within budget.
func New(w *txn.Writes, budget int, alloc Allocator) *State {
	if alloc == nil {
		alloc = MinGap{}
	}
	planned := map[int]bool{}
	for _, q := range alloc.Choose(w, budget) {
		planned[q] = true
	}
	return &State{
		sdg:         sdg.New(),
		planned:     planned,
		checkpoints: map[int]Checkpoint{},
	}
}

// SDG exposes the underlying state-dependency graph.
func (s *State) SDG() *sdg.Graph { return s.sdg }

// Planned reports whether lock state q is scheduled for a checkpoint.
func (s *State) Planned(q int) bool { return s.planned[q] }

// TakeCheckpoint stores the snapshot for lock state q (called by the
// engine as the transaction passes through a planned state). Values are
// copied; the caller's slices are not retained.
func (s *State) TakeCheckpoint(q int, locals []int64, copies []EntityCopy) {
	cp := Checkpoint{
		Locals: append([]int64(nil), locals...),
		Copies: append([]EntityCopy(nil), copies...),
	}
	s.checkpoints[q] = cp
	total := 0
	for _, c := range s.checkpoints {
		total += c.size()
	}
	if total > s.peakCopies {
		s.peakCopies = total
	}
}

// Checkpoint returns the stored snapshot for q, if taken.
func (s *State) Checkpoint(q int) (Checkpoint, bool) {
	cp, ok := s.checkpoints[q]
	return cp, ok
}

// Restorable reports whether lock state q can be restored: either
// well-defined under the single-copy rules or checkpointed.
func (s *State) Restorable(q int) bool {
	if q < 0 || q > s.sdg.LockIndex() {
		return false
	}
	if _, ok := s.checkpoints[q]; ok {
		return true
	}
	return s.sdg.WellDefined(q)
}

// LatestRestorableAtOrBelow returns the largest restorable state <= q
// (state 0 is always restorable).
func (s *State) LatestRestorableAtOrBelow(q int) int {
	if q > s.sdg.LockIndex() {
		q = s.sdg.LockIndex()
	}
	for ; q > 0; q-- {
		if s.Restorable(q) {
			return q
		}
	}
	return 0
}

// Rollback restores the bookkeeping to restorable state q, dropping
// checkpoints above it.
func (s *State) Rollback(q int) error {
	if !s.Restorable(q) {
		return fmt.Errorf("hybrid: lock state %d is not restorable", q)
	}
	if err := s.sdg.ForceRollback(q); err != nil {
		return err
	}
	for k := range s.checkpoints {
		if k > q {
			delete(s.checkpoints, k)
		}
	}
	return nil
}

// PeakCopies returns the maximum number of extra stored values held at
// once — the paper's bounded storage.
func (s *State) PeakCopies() int { return s.peakCopies }

// CheckpointCount returns the number of live checkpoints.
func (s *State) CheckpointCount() int { return len(s.checkpoints) }
