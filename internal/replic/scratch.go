package replic

import (
	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/sched"
)

// Scratch is the replication pass's reusable allocation arena: candidate
// records, their subgraph/removable node lists (stored flat) and the
// class-count working tables are resized in place across the many
// candidate-recomputation rounds of a run. One Scratch serves one run at a
// time; the pipeline reuses one across II attempts. The zero value is
// ready; not safe for concurrent use.
type Scratch struct {
	// subgraphOf / removableOf
	mark  arena.Marks
	stack []int
	succs []int
	preds []int

	// candidates: per-call candidate array plus flat backing for the
	// per-candidate node lists (views stay valid until the next call).
	cands    []Candidate
	candPtrs []*Candidate
	subFlat  []int
	addFlat  []sched.ClusterSet
	remFlat  []int
	commBuf  []int

	// weigh / feasible
	counts [][ddg.NumClasses]int

	// RunScratch on a loop that is not presented: the loop's canonical
	// presentation and the placement carried onto it
	present   ddg.Presentation
	presented sched.Placement
}

// NewScratch returns an empty arena; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

func grown[T any](buf []T, n int) []T { return arena.Grown(buf, n) }
