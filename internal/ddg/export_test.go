package ddg

// PlantCanonical makes c g's canonical labeling, as a canonical-Sum
// collision would: a test plants one to hold the engine to refusing it.
func PlantCanonical(g *Graph, c Canonical) {
	g.canonOnce.Do(func() {})
	g.canon = c
}
