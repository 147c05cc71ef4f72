package replic

import (
	"testing"

	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/partition"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// BenchmarkRun is the replication pass as the first II attempt meets it:
// one op per loop of the 678-loop suite, the MII partition handed to
// RunScratch on a warmed arena. Run rewrites its placement, so every op
// builds a fresh one from the pinned assignment; that is part of the figure.
// 4c2b2l64r is the machine the bench ledger reports, 4c1b2l64r the
// bus-starved one, where most loops have communications to remove.
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"4c2b2l64r", "4c1b2l64r"} {
		m := machine.MustParse(name)
		loops := workload.SPECfp95()
		iis := make([]int, len(loops))
		assigns := make([]*partition.Assignment, len(loops))
		psc := partition.NewScratch()
		for i, l := range loops {
			iis[i] = mii.MII(l.Graph, m)
			assigns[i] = partition.InitialScratch(l.Graph, m, iis[i], psc)
		}
		b.Run(name, func(b *testing.B) {
			sc := NewScratch()
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				k := i % len(loops)
				RunScratch(sched.NewPlacement(loops[k].Graph, assigns[k]), m, iis[k], sc)
			}
		})
	}
}
