package mcs

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"partialrollback/internal/intern"
)

func TestBasicStackLifecycle(t *testing.T) {
	c := New(map[string]int64{"l": 7})
	if v, ok := c.LocalValue("l"); !ok || v != 7 {
		t.Error("initial local")
	}
	c.OnLock("a", true, 100) // lock index 0 -> 1
	if v, ok := c.EntityValue("a"); !ok || v != 100 {
		t.Error("bottom element must be the global value")
	}
	if err := c.WriteEntity("a", 101); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteEntity("a", 102); err != nil {
		t.Fatal(err)
	}
	// Two writes in the same lock interval update in place.
	if e, _ := c.SpaceUsed(); e != 2 {
		t.Errorf("entity elems = %d, want 2 (bottom + one interval)", e)
	}
	c.OnLock("b", true, 200) // lock index 1 -> 2
	if err := c.WriteEntity("a", 103); err != nil {
		t.Fatal(err)
	}
	if e, _ := c.SpaceUsed(); e != 4 {
		t.Errorf("entity elems = %d, want 4", e)
	}
	if v, _ := c.EntityValue("a"); v != 103 {
		t.Error("current value")
	}
	// Rollback to lock state 1: b's stack dropped (index 1 >= 1), a's
	// write at lock index 2 popped; writes at lock index 1 survive.
	c.Rollback(1)
	if v, _ := c.EntityValue("a"); v != 102 {
		t.Errorf("a = %d, want 102 (last write at lock index 1)", v)
	}
	if _, ok := c.EntityValue("b"); ok {
		t.Error("b should be gone")
	}
	// Rollback to 0: a dropped too.
	c.Rollback(0)
	if _, ok := c.EntityValue("a"); ok {
		t.Error("a should be gone after rollback to 0")
	}
	if v, _ := c.LocalValue("l"); v != 7 {
		t.Error("local must return to initial")
	}
}

func TestSharedLocksCreateNoStack(t *testing.T) {
	c := New(nil)
	c.OnLock("s", false, 0)
	if _, ok := c.EntityValue("s"); ok {
		t.Error("shared entity should have no stack")
	}
	if c.LockIndex() != 1 {
		t.Error("lock index must advance for shared locks too")
	}
	if err := c.WriteEntity("s", 1); err == nil {
		t.Error("write to shared entity must fail")
	}
}

func TestLocalWrites(t *testing.T) {
	c := New(map[string]int64{"x": 0})
	c.OnLock("a", true, 0)
	if err := c.WriteLocal("x", 5); err != nil {
		t.Fatal(err)
	}
	c.OnLock("b", true, 0)
	if err := c.WriteLocal("x", 9); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteLocal("zz", 1); err == nil {
		t.Error("undeclared local must fail")
	}
	c.Rollback(1)
	if v, _ := c.LocalValue("x"); v != 5 {
		t.Errorf("x = %d, want 5", v)
	}
	locals := c.Locals()
	if locals["x"] != 5 {
		t.Error("Locals snapshot")
	}
}

func TestOnUnlockDiscards(t *testing.T) {
	c := New(nil)
	c.OnLock("a", true, 1)
	c.OnUnlock("a")
	if _, ok := c.EntityValue("a"); ok {
		t.Error("unlock should free the stack")
	}
}

func TestRollbackBoundsPanics(t *testing.T) {
	c := New(nil)
	c.OnLock("a", true, 0)
	for _, q := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rollback(%d) should panic", q)
				}
			}()
			c.Rollback(q)
		}()
	}
}

// oracle replays a trace prefix directly: opLock / opWriteE / opWriteL.
type traceOp struct {
	kind   int // 0 lock, 1 entity write, 2 local write
	target string
	val    int64
}

// replay computes entity local copies and locals after executing the
// prefix of ops up to (but not including) the first op with lock index
// > q... more precisely: state at lock state q = all ops before the
// (q+1)-th lock.
func replay(initLocals map[string]int64, globals map[string]int64, ops []traceOp, q int) (map[string]int64, map[string]int64) {
	locals := map[string]int64{}
	for k, v := range initLocals {
		locals[k] = v
	}
	copies := map[string]int64{}
	locks := 0
	for _, op := range ops {
		if op.kind == 0 {
			if locks == q {
				break
			}
			locks++
			copies[op.target] = globals[op.target]
			continue
		}
		if op.kind == 1 {
			copies[op.target] = op.val
		} else {
			locals[op.target] = op.val
		}
	}
	return copies, locals
}

// TestQuickRollbackMatchesReplay: after any random sequence of locks
// and writes, rolling back to any lock state q yields exactly the
// values a fresh execution of the prefix would produce — the paper's
// definition of a correct rollback.
func TestQuickRollbackMatchesReplay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		initLocals := map[string]int64{"u": int64(rng.Intn(10)), "w": int64(rng.Intn(10))}
		globals := map[string]int64{}
		c := New(initLocals)
		var ops []traceOp
		nLocks := 0
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0:
				name := fmt.Sprintf("e%d", nLocks)
				globals[name] = int64(rng.Intn(100))
				c.OnLock(name, true, globals[name])
				ops = append(ops, traceOp{kind: 0, target: name})
				nLocks++
			case 1:
				if nLocks == 0 {
					continue
				}
				name := fmt.Sprintf("e%d", rng.Intn(nLocks))
				v := int64(rng.Intn(1000))
				if err := c.WriteEntity(name, v); err != nil {
					return false
				}
				ops = append(ops, traceOp{kind: 1, target: name, val: v})
			case 2:
				if nLocks == 0 {
					continue // no writes before first lock
				}
				name := "u"
				if rng.Intn(2) == 0 {
					name = "w"
				}
				v := int64(rng.Intn(1000))
				if err := c.WriteLocal(name, v); err != nil {
					return false
				}
				ops = append(ops, traceOp{kind: 2, target: name, val: v})
			}
		}
		if nLocks == 0 {
			return true
		}
		q := rng.Intn(nLocks + 1)
		c.Rollback(q)
		wantCopies, wantLocals := replay(initLocals, globals, ops, q)
		for name, want := range wantCopies {
			got, ok := c.EntityValue(name)
			if !ok || got != want {
				return false
			}
		}
		for name, want := range wantLocals {
			got, ok := c.LocalValue(name)
			if !ok || got != want {
				return false
			}
		}
		// No extra surviving entities.
		e, _ := c.SpaceUsed()
		total := 0
		for name := range wantCopies {
			_ = name
			total++
		}
		return c.LockIndex() == q && e >= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSpaceBound: Theorem 3's bound holds for arbitrary write
// patterns, not just the adversarial one. The theorem counts writes
// between lock requests; writes in the interval after the final lock
// request (which §5 notes need no monitoring at all) can add one more
// element per stack, hence the +n and +1-per-local slack here.
func TestQuickSpaceBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		locals := map[string]int64{"l1": 0, "l2": 0}
		c := New(locals)
		n := 1 + rng.Intn(12)
		for k := 0; k < n; k++ {
			c.OnLock(fmt.Sprintf("e%d", k), true, 0)
			for w := 0; w < rng.Intn(5); w++ {
				_ = c.WriteEntity(fmt.Sprintf("e%d", rng.Intn(k+1)), int64(w))
				_ = c.WriteLocal("l1", int64(w))
				_ = c.WriteLocal("l2", int64(w))
			}
		}
		e, l := c.PeakSpace()
		return e <= n*(n+1)/2+n && l <= 2*(n+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleRollbacks(t *testing.T) {
	c := New(map[string]int64{"x": 0})
	c.OnLock("a", true, 10)
	_ = c.WriteEntity("a", 11)
	_ = c.WriteLocal("x", 1)
	c.OnLock("b", true, 20)
	_ = c.WriteEntity("a", 12)
	_ = c.WriteLocal("x", 2)
	c.Rollback(1)
	// Re-execute differently: lock c instead of b.
	c.OnLock("c", true, 30)
	_ = c.WriteEntity("c", 31)
	_ = c.WriteLocal("x", 3)
	if v, _ := c.EntityValue("a"); v != 11 {
		t.Errorf("a = %d", v)
	}
	c.Rollback(1)
	if v, _ := c.EntityValue("a"); v != 11 {
		t.Errorf("a after second rollback = %d", v)
	}
	if v, _ := c.LocalValue("x"); v != 1 {
		t.Errorf("x = %d", v)
	}
	if _, ok := c.EntityValue("c"); ok {
		t.Error("c must be dropped")
	}
}

func TestSlotAPIAndIncrementalPeaks(t *testing.T) {
	names := intern.NewTable()
	c := NewSlots(names, []string{"x", "y"}, []int64{5, 6})
	a := names.Intern("a")
	c.OnLockID(a, true, 100)
	if err := c.WriteEntityID(a, 101); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteLocalSlot(0, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.LocalValueSlot(0); !ok || v != 50 {
		t.Fatalf("LocalValueSlot(0) = %d,%v, want 50", v, ok)
	}
	if v, ok := c.LocalValue("x"); !ok || v != 50 {
		t.Fatalf("string view LocalValue(x) = %d,%v, want 50", v, ok)
	}
	if v, ok := c.EntityValueID(a); !ok || v != 101 {
		t.Fatalf("EntityValueID = %d,%v, want 101", v, ok)
	}
	// Incremental counters must agree with a by-hand count: entity
	// stack has bottom(100)+write(101)=2; locals x has init+write=2,
	// y has init=1.
	e, l := c.SpaceUsed()
	if e != 2 || l != 3 {
		t.Fatalf("SpaceUsed = %d,%d, want 2,3", e, l)
	}
	pe, pl := c.PeakSpace()
	if pe != 2 || pl != 3 {
		t.Fatalf("PeakSpace = %d,%d, want 2,3", pe, pl)
	}
	c.Rollback(0)
	if e, l := c.SpaceUsed(); e != 0 || l != 2 {
		t.Fatalf("after rollback SpaceUsed = %d,%d, want 0,2", e, l)
	}
	if pe, pl := c.PeakSpace(); pe != 2 || pl != 3 {
		t.Fatalf("peaks moved on rollback: %d,%d", pe, pl)
	}
	if got := c.CopyLocalsInto(nil); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("CopyLocalsInto after rollback = %v, want [5 6]", got)
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	names := intern.NewTable()
	c := NewSlots(names, []string{"x"}, []int64{0})
	a := names.Intern("a")
	if n := testing.AllocsPerRun(200, func() {
		c.OnLockID(a, true, 1)
		if err := c.WriteEntityID(a, 2); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteLocalSlot(0, 3); err != nil {
			t.Fatal(err)
		}
		c.Rollback(0)
	}); n != 0 {
		t.Fatalf("mcs lock/write/rollback cycle allocates %v per run, want 0", n)
	}
}
