package sched

import "clusched/internal/machine"

// computeMaxLive estimates per-cluster register pressure of a modulo
// schedule: every register value's lifetime (definition to last use,
// including loop-carried uses II·dist cycles later and copy reads) is
// folded modulo II; the pressure of a cluster is the maximum number of
// simultaneously live values across the II slots. Lifetimes longer than II
// overlap themselves once per started iteration.
//
// The result aliases the Scratch arena (sc.maxLive); callers that retain it
// copy it out.
func computeMaxLive(ig *IGraph, ii int, time []int, sc *Scratch) []int {
	k := ig.P.K
	pressure := zeroed(sc.pressure, k*ii)
	sc.pressure = pressure

	// lastUse[c] tracks the last data read of the current value in cluster
	// c; have is the bitmask of clusters with any read. Machines have at
	// most machine.MaxClusters clusters, so a fixed array avoids a
	// per-instance map.
	var lastUse [machine.MaxClusters]int
	var have uint32

	for i := range ig.Inst {
		in := ig.Inst[i]
		if !in.IsCopy && ig.G.Nodes[in.Orig].Op.IsStore() {
			continue // stores produce no register value
		}
		def := time[i] + ig.Latency(int32(i))
		// A copy writes the value into every cluster that reads it from the
		// bus; an ordinary instance writes its own cluster's file. Track the
		// last use per destination cluster.
		have = 0
		for _, eid := range ig.Out(int32(i)) {
			e := &ig.Edges[eid]
			if !e.Data {
				continue
			}
			use := time[e.Dst] + ii*int(e.Dist)
			// The consuming "cluster" for pressure purposes: copies read in
			// the producer's home cluster.
			c := ig.Inst[e.Dst].Cluster
			if have&(1<<uint(c)) == 0 || use > lastUse[c] {
				have |= 1 << uint(c)
				lastUse[c] = use
			}
		}
		if in.IsCopy {
			// The value occupies a register in each destination cluster from
			// bus delivery until its last local use.
			for h := have; h != 0; h &= h - 1 {
				c := ClusterSet(h).Lowest()
				addLiveInterval(pressure[c*ii:(c+1)*ii], ii, def, lastUse[c])
			}
			continue
		}
		// Ordinary instance: pressure in its own cluster from definition to
		// the latest local read (consumers in this cluster plus copies,
		// which read here). A value produced but never read here (e.g. all
		// its consumers are fed by a copy chain elsewhere) is held for one
		// cycle.
		last, c := def, int(in.Cluster)
		if have&(1<<uint(c)) != 0 && lastUse[c] > last {
			last = lastUse[c]
		}
		addLiveInterval(pressure[c*ii:(c+1)*ii], ii, def, last)
	}

	maxLive := zeroed(sc.maxLive, k)
	sc.maxLive = maxLive
	for c := 0; c < k; c++ {
		for _, p := range pressure[c*ii : (c+1)*ii] {
			if int(p) > maxLive[c] {
				maxLive[c] = int(p)
			}
		}
	}
	return maxLive
}

// addLiveInterval folds the lifetime [def, lastUse] of one value into a
// cluster's per-slot pressure row, wrapping modulo II.
func addLiveInterval(row []int32, ii, def, lastUse int) {
	if lastUse < def {
		lastUse = def
	}
	length := lastUse - def + 1
	wraps := length / ii
	rem := length % ii
	if wraps > 0 {
		for slot := range row {
			row[slot] += int32(wraps)
		}
	}
	start := def % ii
	if start < 0 {
		start += ii
	}
	for d := 0; d < rem; d++ {
		row[(start+d)%ii]++
	}
}
