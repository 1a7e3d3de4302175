package core

// Test helpers for package core_test, whose tests check serializability
// with history.Recorder (history imports core, so they cannot live in
// package core).
var (
	RunAll       = runAll
	StepToCommit = stepToCommit
	ChainProgram = chainProgram
	TransferProg = transferProg
)
