// Package machine models the statically-scheduled clustered VLIW
// microarchitecture of the paper (§2.1, Table 1): homogeneous clusters, each
// with its own functional units and register file, connected by a small set
// of broadcast register buses, in front of a centralized memory hierarchy.
package machine

import (
	"fmt"
	"regexp"
	"strconv"

	"clusched/internal/ddg"
)

// Config describes one machine configuration. The paper names
// configurations "wcxbylzr": w clusters, x buses, y-cycle bus latency, z
// registers per cluster.
type Config struct {
	// Name is the wcxbylzr identifier (or "unified").
	Name string
	// Clusters is the number of clusters (1 = unified machine).
	Clusters int
	// Buses is the number of inter-cluster broadcast buses (0 when unified).
	Buses int
	// BusLatency is the latency, in cycles, of a bus transfer.
	BusLatency int
	// Regs is the number of registers per cluster.
	Regs int
	// FU[c] is the number of functional units of class c in each cluster
	// of a homogeneous machine.
	FU [ddg.NumClasses]int
	// Hetero, when non-nil, overrides FU per cluster: Hetero[k][c] is the
	// number of class-c units in cluster k. The paper's machines are
	// homogeneous, but §2.1 notes the algorithms extend directly; every
	// pass consults FUAt, so heterogeneous machines work throughout.
	Hetero [][ddg.NumClasses]int
}

// FUAt returns the number of functional units of class cl in cluster c.
func (cfg Config) FUAt(c int, cl ddg.Class) int {
	if cfg.Hetero != nil {
		return cfg.Hetero[c][cl]
	}
	return cfg.FU[cl]
}

// TotalFU returns the machine-wide unit count of one class.
func (cfg Config) TotalFU(cl ddg.Class) int {
	if cfg.Hetero == nil {
		return cfg.FU[cl] * cfg.Clusters
	}
	total := 0
	for c := range cfg.Hetero {
		total += cfg.Hetero[c][cl]
	}
	return total
}

// MaxClusters is the most clusters a machine may have: the scheduler keeps
// a node's set of clusters in the bits of one uint32.
const MaxClusters = 32

// NewHetero builds a clustered machine with per-cluster functional-unit
// counts, 2 to MaxClusters clusters. Every class must be executable
// somewhere.
func NewHetero(buses, busLat, regsPerCluster int, fu [][ddg.NumClasses]int) (Config, error) {
	if len(fu) < 2 {
		return Config{}, fmt.Errorf("machine: heterogeneous config needs at least 2 clusters")
	}
	if len(fu) > MaxClusters {
		return Config{}, fmt.Errorf("machine: heterogeneous config has %d clusters, at most %d are supported", len(fu), MaxClusters)
	}
	if buses <= 0 || busLat <= 0 {
		return Config{}, fmt.Errorf("machine: clustered config needs buses and positive bus latency")
	}
	if regsPerCluster <= 0 {
		return Config{}, fmt.Errorf("machine: positive register count required")
	}
	c := Config{
		Name:       fmt.Sprintf("hetero%dc%db%dl%dr", len(fu), buses, busLat, regsPerCluster*len(fu)),
		Clusters:   len(fu),
		Buses:      buses,
		BusLatency: busLat,
		Regs:       regsPerCluster,
		Hetero:     append([][ddg.NumClasses]int(nil), fu...),
	}
	for cl := ddg.Class(0); cl < ddg.NumClasses; cl++ {
		if c.TotalFU(cl) <= 0 {
			return Config{}, fmt.Errorf("machine: no cluster executes %v operations", cl)
		}
	}
	return c, nil
}

// totalFU is the issue width of the baseline 12-wide machine: 4 integer FUs,
// 4 FP FUs and 4 memory ports (paper §4), divided evenly among clusters.
const totalFUPerClass = 4

// New builds a configuration with the paper's resource split: the total of
// 4 FUs per class is divided evenly among clusters. clusters must divide 4.
func New(clusters, buses, busLat, regs int) (Config, error) {
	if clusters <= 0 || totalFUPerClass%clusters != 0 {
		return Config{}, fmt.Errorf("machine: cluster count %d must divide %d", clusters, totalFUPerClass)
	}
	if clusters > 1 && (buses <= 0 || busLat <= 0) {
		return Config{}, fmt.Errorf("machine: clustered config needs buses (got %d) and positive bus latency (got %d)", buses, busLat)
	}
	if regs <= 0 || regs%clusters != 0 {
		return Config{}, fmt.Errorf("machine: register count %d must be positive and divisible by the cluster count %d", regs, clusters)
	}
	// The z in wcxbylzr is the total register budget of the unified
	// machine; clustering splits it evenly (Table 1: the 2-cluster machine
	// has half the registers per cluster, the 4-cluster one a fourth).
	c := Config{
		Clusters:   clusters,
		Buses:      buses,
		BusLatency: busLat,
		Regs:       regs / clusters,
	}
	per := totalFUPerClass / clusters
	for k := range c.FU {
		c.FU[k] = per
	}
	if clusters == 1 {
		c.Name = "unified"
		c.Buses, c.BusLatency = 0, 0
	} else {
		c.Name = fmt.Sprintf("%dc%db%dl%dr", clusters, buses, busLat, regs)
	}
	return c, nil
}

// MustNew is New but panics on error, for static tables.
func MustNew(clusters, buses, busLat, regs int) Config {
	c, err := New(clusters, buses, busLat, regs)
	if err != nil {
		panic(err)
	}
	return c
}

// Unified returns the monolithic 12-issue machine used as the upper bound in
// the paper's Fig. 8.
func Unified(regs int) Config { return MustNew(1, 0, 0, regs) }

var configRE = regexp.MustCompile(`^(\d+)c(\d+)b(\d+)l(\d+)r$`)

// Parse decodes a wcxbylzr configuration string such as "4c2b2l64r". The
// string "unified" (optionally with a register suffix such as "unified64r")
// yields the monolithic machine.
func Parse(s string) (Config, error) {
	if s == "unified" {
		return Unified(64), nil
	}
	m := configRE.FindStringSubmatch(s)
	if m == nil {
		return Config{}, fmt.Errorf("machine: config %q does not match wcxbylzr", s)
	}
	atoi := func(x string) int { v, _ := strconv.Atoi(x); return v }
	return New(atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4]))
}

// MustParse is Parse but panics on error.
func MustParse(s string) Config {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// IssueWidth returns the total number of functional units across clusters.
func (c Config) IssueWidth() int {
	w := 0
	for _, n := range c.FU {
		w += n * c.Clusters
	}
	return w
}

// Clustered reports whether the machine has more than one cluster.
func (c Config) Clustered() bool { return c.Clusters > 1 }

// BusComs returns the maximum number of communications that can be carried
// per II cycles: (II / bus_lat) · nof_buses (paper §3). Zero for the unified
// machine.
func (c Config) BusComs(ii int) int {
	if !c.Clustered() || c.BusLatency <= 0 {
		return 0
	}
	return (ii / c.BusLatency) * c.Buses
}

// MinBusII returns the smallest II at which coms communications fit on the
// buses: the inverse of BusComs.
func (c Config) MinBusII(coms int) int {
	if coms <= 0 || !c.Clustered() {
		return 1
	}
	// Need (II/busLat)·buses ≥ coms  ⇒  II ≥ busLat · ceil(coms/buses).
	return c.BusLatency * ((coms + c.Buses - 1) / c.Buses)
}

// String returns the configuration name.
func (c Config) String() string { return c.Name }

// PaperConfigs returns the six clustered configurations evaluated in the
// paper's Fig. 7/10/12, in presentation order.
func PaperConfigs() []Config {
	return []Config{
		MustParse("2c1b2l64r"),
		MustParse("2c2b4l64r"),
		MustParse("4c1b2l64r"),
		MustParse("4c2b4l64r"),
		MustParse("4c2b2l64r"),
		MustParse("4c4b4l64r"),
	}
}

// Fig1Configs returns the three configurations of the paper's Fig. 1 and
// Fig. 9.
func Fig1Configs() []Config {
	return []Config{
		MustParse("2c1b2l64r"),
		MustParse("4c1b2l64r"),
		MustParse("4c2b2l64r"),
	}
}
