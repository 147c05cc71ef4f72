package pipeline

// The strategy layer: a compilation is no longer hardwired to the paper's
// partition → replicate → schedule chain. A Strategy names a cluster-
// assignment algorithm and supplies the pass chain the II search drives;
// Options.Strategy selects one by name, and a registry makes the set
// extensible without touching the search. The paper's algorithm is just the
// "paper" strategy — its Chain() is the Fig. 2 chain that used to be the
// only code path — and it competes against the rival designs §6 of the
// paper argues about: the unified-machine upper bound, a greedy
// unified-assign-and-schedule scheduler (the UAS family of Özer et al.),
// and a naive modulo distribution.
//
// Capabilities are optional interfaces, not flags: a strategy that rewrites
// the effective machine implements machineRewriter (unified), and one whose
// failure shapes satisfy the skip-ahead soundness argument of skipahead.go
// implements skipAheadCapable (only paper does — the proof there reasons
// about the partition-refinement fixpoint, which no other chain has).

import (
	"fmt"
	"sort"
	"sync"

	"clusched/internal/machine"
)

// DefaultStrategy is the strategy an empty Options.Strategy selects: the
// paper's multilevel partition + replication pipeline.
const DefaultStrategy = "paper"

// Strategy is one cluster-assignment algorithm: it supplies the pass chain
// the II search drives and vets the (options, machine) combinations it can
// honor. Implementations must be stateless values — one registered Strategy
// serves every compilation concurrently.
type Strategy interface {
	// Name is the registry key and the canonical Options.Strategy value.
	Name() string
	// Chain returns the pass chain the search drives. The search only
	// reads it, so a strategy may hand every compilation the same slice.
	Chain() []Pass
	// Validate rejects option or machine combinations the strategy cannot
	// honor (for example, replication options on a chain with no
	// replication pass). It runs once per compilation, before the search.
	Validate(opts Options, m machine.Config) error
}

// machineRewriter is the optional capability of strategies that compile for
// a different effective machine than the requested one (unified substitutes
// the monolithic equivalent). The Result's Machine field reports the
// effective machine.
type machineRewriter interface {
	EffectiveMachine(m machine.Config) machine.Config
}

// skipAheadCapable is the optional capability gating the II skip-ahead
// (skipahead.go). The soundness argument there is specific to the paper
// chain — it reasons about partition-refinement fixpoints and slack-derived
// edge weights — so only strategies whose failed attempts provably evolve
// the same way may opt in. Strategies without the capability always search
// linearly.
type skipAheadCapable interface {
	SkipAhead() bool
}

// describer optionally documents a strategy for listings (GET /strategies,
// the README table, examples).
type describer interface {
	Describe() string
}

var (
	strategyMu  sync.RWMutex
	strategyReg = map[string]Strategy{}
)

// RegisterStrategy adds a strategy to the registry. It panics on an empty
// name or a duplicate registration — strategies are wired up in init
// functions, where a collision is a programming error.
func RegisterStrategy(s Strategy) {
	name := s.Name()
	if name == "" {
		panic("pipeline: RegisterStrategy with empty name")
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyReg[name]; dup {
		panic(fmt.Sprintf("pipeline: strategy %q registered twice", name))
	}
	strategyReg[name] = s
}

// LookupStrategy resolves a strategy name; the empty string resolves to
// DefaultStrategy.
func LookupStrategy(name string) (Strategy, bool) {
	if name == "" {
		name = DefaultStrategy
	}
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	s, ok := strategyReg[name]
	return s, ok
}

// KnownStrategy reports whether name resolves to a registered strategy.
func KnownStrategy(name string) bool {
	_, ok := LookupStrategy(name)
	return ok
}

// StrategyNames returns the registered strategy names, sorted.
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	names := make([]string, 0, len(strategyReg))
	for name := range strategyReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StrategyDescription returns the strategy's one-line description, if it
// provides one.
func StrategyDescription(name string) string {
	s, ok := LookupStrategy(name)
	if !ok {
		return ""
	}
	if d, ok := s.(describer); ok {
		return d.Describe()
	}
	return ""
}

// UnknownStrategyError reports an Options.Strategy that names no registered
// strategy. It is the typed error the wire codec surfaces when a job from a
// newer peer asks for a strategy this build does not have.
type UnknownStrategyError struct {
	Name string
}

// Error implements error.
func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("pipeline: unknown strategy %q (registered: %v)", e.Name, StrategyNames())
}

// resolveStrategy resolves opts.Strategy (defaulting the empty name),
// validates the options against it, and returns it with the machine it
// compiles for.
func resolveStrategy(opts Options, m machine.Config) (Strategy, machine.Config, error) {
	s, ok := LookupStrategy(opts.Strategy)
	if !ok {
		return nil, m, &UnknownStrategyError{Name: opts.Strategy}
	}
	if err := s.Validate(opts, m); err != nil {
		return nil, m, err
	}
	if mr, ok := s.(machineRewriter); ok {
		m = mr.EffectiveMachine(m)
	}
	return s, m, nil
}

// StrategyName canonicalizes the Options.Strategy field: the empty string
// is the default strategy. Cache keys and wire encodings use it so the same
// job never has two identities.
func (o Options) StrategyName() string {
	if o.Strategy == "" {
		return DefaultStrategy
	}
	return o.Strategy
}

func init() {
	RegisterStrategy(paperStrategy{})
	RegisterStrategy(unifiedStrategy{})
}

// paperStrategy is the paper's algorithm: multilevel partition, selective
// instruction replication, modulo scheduling (the Fig. 2 driver chain).
type paperStrategy struct{}

// Name implements Strategy.
func (paperStrategy) Name() string { return "paper" }

// Chain implements Strategy: the standard five-pass chain.
func (paperStrategy) Chain() []Pass { return paperChain }

// Validate implements Strategy: the paper chain honors every option.
func (paperStrategy) Validate(opts Options, m machine.Config) error { return nil }

// SkipAhead opts the paper chain into the II skip-ahead: the soundness
// conditions of skipahead.go are stated (and proven) for exactly this
// chain's failure shapes.
func (paperStrategy) SkipAhead() bool { return true }

// ReplayFailedAttempt implements attemptReplayer: the only state a failed
// attempt of the paper chain carries forward is the refined assignment, so
// the lineage replay is the PartitionPass assignment step alone.
func (paperStrategy) ReplayFailedAttempt(ctx *Context) { replayPartitionStep(ctx) }

// Describe implements describer.
func (paperStrategy) Describe() string {
	return "multilevel partition + selective replication + modulo scheduling (the paper's algorithm)"
}

// unifiedStrategy compiles for the monolithic machine with the same total
// resources: the clustering disappears, so the result is the unified-
// machine upper bound the paper's Fig. 8 compares against. It is the
// promotion of the old ad-hoc baseline-compile-on-a-unified-machine pattern
// into a first-class strategy.
type unifiedStrategy struct{}

// Name implements Strategy.
func (unifiedStrategy) Name() string { return "unified" }

// Chain implements Strategy. On a single-cluster machine the standard chain
// degenerates exactly as needed: the partition is trivial, replication is a
// structural no-op, and only the scheduler does work.
func (unifiedStrategy) Chain() []Pass { return paperChain }

// Validate implements Strategy: heterogeneous machines have no canonical
// unified equivalent (their FU matrix is per-cluster by construction).
func (unifiedStrategy) Validate(opts Options, m machine.Config) error {
	if m.Hetero != nil {
		return fmt.Errorf("pipeline: strategy %q: heterogeneous machine %s has no unified equivalent", "unified", m)
	}
	return nil
}

// EffectiveMachine implements machineRewriter: the monolithic machine with
// the clustered machine's total register budget (the paper's Table 1 keeps
// total FU counts equal across cluster counts, so resources match).
func (unifiedStrategy) EffectiveMachine(m machine.Config) machine.Config {
	if !m.Clustered() {
		return m
	}
	return machine.Unified(m.Regs * m.Clusters)
}

// ReplayFailedAttempt implements attemptReplayer: the unified chain is the
// standard chain on the rewritten machine, so its cross-attempt state is
// the same single assignment (trivial on one cluster, but kept identical
// to the sequential evolution on principle).
func (unifiedStrategy) ReplayFailedAttempt(ctx *Context) { replayPartitionStep(ctx) }

// Describe implements describer.
func (unifiedStrategy) Describe() string {
	return "single-cluster upper bound: schedule on the monolithic machine with the same total resources"
}
