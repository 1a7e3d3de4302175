package figures

import (
	"partialrollback/internal/txn"
	"partialrollback/internal/value"
)

// Figure5Result reproduces §5's transaction-structure comparison: the
// same operations as Figure 4's T, reordered so writes to each entity
// cluster within one lock interval, yield far more well-defined states
// ("rollbacks need not proceed as often beyond the minimum extent
// necessary").
type Figure5Result struct {
	// ScatteredWellDefined and ClusteredWellDefined count well-defined
	// lock states (of 7) for the two orderings.
	ScatteredWellDefined int
	ClusteredWellDefined int
	// ScatteredClustering and ClusteredClustering are the clustering
	// indexes (total destroyed states; 0 = perfectly clustered).
	ScatteredClustering int
	ClusteredClustering int
	// ThreePhaseWellDefined counts well-defined states for the §5
	// three-phase variant (acquire, update, release).
	ThreePhaseWellDefined int
	ThreePhaseIs3P        bool
}

// Figure5Clustered is Figure 4's T with the same writes moved next to
// their entities' lock requests: every entity is written in exactly one
// lock interval, so no lock state is destroyed.
func Figure5Clustered() *txn.Program {
	b := txn.NewProgram("T2-clustered").
		Local("la", 0).Local("lb", 0).Local("ld", 0)
	b.LockX("A")
	b.Read("A", "la")
	b.Write("A", value.Add(value.L("la"), value.C(1)))
	b.Write("A", value.Add(value.L("la"), value.C(2)))
	b.LockX("B")
	b.Read("B", "lb")
	b.Write("B", value.Add(value.L("lb"), value.C(1)))
	b.Write("B", value.Add(value.L("lb"), value.C(2)))
	b.LockX("C")
	b.LockX("D")
	b.Read("D", "ld")
	b.Write("D", value.Add(value.L("ld"), value.C(1)))
	b.Write("D", value.Add(value.L("ld"), value.C(2)))
	b.LockX("E")
	b.LockX("F")
	return b.MustBuild()
}

// Figure5ThreePhase is the same work in §5's three-phase form: all six
// locks (with reads), a DeclareLastLock, then every write.
func Figure5ThreePhase() *txn.Program {
	b := txn.NewProgram("T2-threephase").
		Local("la", 0).Local("lb", 0).Local("ld", 0)
	b.LockX("A")
	b.Read("A", "la")
	b.LockX("B")
	b.Read("B", "lb")
	b.LockX("C")
	b.LockX("D")
	b.Read("D", "ld")
	b.LockX("E")
	b.LockX("F")
	b.DeclareLastLock()
	b.Write("A", value.Add(value.L("la"), value.C(1)))
	b.Write("A", value.Add(value.L("la"), value.C(2)))
	b.Write("B", value.Add(value.L("lb"), value.C(1)))
	b.Write("B", value.Add(value.L("lb"), value.C(2)))
	b.Write("D", value.Add(value.L("ld"), value.C(1)))
	b.Write("D", value.Add(value.L("ld"), value.C(2)))
	return b.MustBuild()
}

// RunFigure5 compares the three structures statically.
func RunFigure5() (*Figure5Result, error) {
	scattered := txn.AnalyzeWrites(Figure4T(true))
	clustered := txn.AnalyzeWrites(Figure5Clustered())
	threePhase := txn.AnalyzeWrites(Figure5ThreePhase())
	return &Figure5Result{
		ScatteredWellDefined:  scattered.WellDefinedCount(),
		ClusteredWellDefined:  clustered.WellDefinedCount(),
		ScatteredClustering:   scattered.ClusteringIndex(),
		ClusteredClustering:   clustered.ClusteringIndex(),
		ThreePhaseWellDefined: threePhase.WellDefinedCount(),
		ThreePhaseIs3P:        txn.IsThreePhase(Figure5ThreePhase()),
	}, nil
}
