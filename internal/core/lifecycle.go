package core

import (
	"errors"
	"fmt"

	"partialrollback/internal/txn"
)

// Transactions in a long-running service come and go; these hooks let a
// serving layer (internal/server) retire transaction state so the
// system does not accumulate every transaction it ever executed.

// ErrCommitted reports an Abort of a transaction that has already
// committed (the caller lost a race with the commit; the work is done).
var ErrCommitted = errors.New("core: transaction already committed")

// ErrShrinking reports an Abort of a transaction that has entered its
// shrinking phase. Such a transaction may already have installed the
// values of the entities it unlocked and can no longer be rolled back
// (§2 forbids rollback past an unlock); it also can never block again —
// no lock requests remain — so the caller should simply step it to
// commit. A transaction whose step failed is not such a case: Abort
// retires it (see Abort).
var ErrShrinking = errors.New("core: transaction is unlocking and must run to commit")

// Abort rolls a transaction back to its initial state and removes it
// from the system, releasing every lock it holds and retracting any
// pending request. It is the serving layer's escape hatch for request
// deadlines, client disconnects, and shutdown drain. It fails with
// ErrCommitted for committed transactions and ErrShrinking for
// transactions past their first unlock.
//
// The exception is a transaction past its first unlock whose step
// returned an error (a division by zero, a store fault): it can
// neither roll back nor commit, and stepping it again repeats the
// failure. Abort releases the locks it still holds without installing
// their copies and removes it. What its earlier unlocks installed stays
// in the store (and in the commit log): those values were visible to
// other transactions the moment they were installed.
func (s *System) Abort(id txn.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return err
	}
	switch {
	case t.status == StatusCommitted:
		return ErrCommitted
	case t.unlocked && !t.failed:
		return ErrShrinking
	case t.unlocked:
		// A shrinking transaction waits on nothing, so no request
		// needs retracting.
		if err := s.releaseFrom(t, 0); err != nil {
			return fmt.Errorf("core: abort %v: %w", id, err)
		}
	case len(t.lockStates) > 0:
		// A transaction that has issued at least one lock request has a
		// recorded initial lock state to roll back to; one that has not
		// holds nothing and (per the §4 validation rule: no writes
		// before the first lock request) has modified nothing.
		if err := s.rollbackTo(t, 0); err != nil {
			return fmt.Errorf("core: abort %v: %w", id, err)
		}
	}
	delete(s.txns, id)
	s.unpinAll(t)
	s.stats.Aborts++
	s.emit(Event{Kind: EventAbort, Txn: id, Detail: t.x.Name})
	return nil
}

// Forget removes a committed transaction's bookkeeping. Serving layers
// call it (or Retire) after reporting the commit so the transaction
// table stays bounded under sustained traffic. It fails for
// transactions that have not committed.
func (s *System) Forget(id txn.ID) error {
	_, err := s.Retire(id)
	return err
}

// Retired is a committed transaction's final outcome, as Retire
// returns it.
type Retired struct {
	Stats TxnStats
	// LocalNames lists the program's locals in name order; Locals holds
	// their final values alongside.
	LocalNames []string
	Locals     []int64
}

// Retire is Forget that also returns the committed transaction's
// counters and locals, in one engine acquisition: the serving layer's
// commit reply. It fails for transactions that have not committed.
func (s *System) Retire(id txn.ID) (Retired, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.get(id)
	if err != nil {
		return Retired{}, err
	}
	if t.status != StatusCommitted {
		return Retired{}, fmt.Errorf("core: cannot retire %v: status %v", id, t.status)
	}
	delete(s.txns, id)
	// t is unreachable now, so its locals slice can be handed out as is.
	return Retired{Stats: t.stats, LocalNames: t.x.Locals[:len(t.x.Init)], Locals: t.locals}, nil
}
