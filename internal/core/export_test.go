package core

import "partialrollback/internal/txn"

// Test helpers for package core_test, whose tests check serializability
// with history.Recorder or resolve waits with internal/deadlock (both
// import core, so those tests cannot live in package core).
var (
	RunAll       = runAll
	StepToCommit = stepToCommit
	ChainProgram = chainProgram
	TransferProg = transferProg
	BenchProgram = benchProgram
)

// WakeOf returns id's wake channel (StepResult.Wake), nil before its
// first wait.
func WakeOf(s *System, id txn.ID) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txns[id].wake
}
