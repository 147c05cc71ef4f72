package pipeline

// The strategy table: a compilation drives the pass chain of the strategy
// Options.Strategy names. The paper's algorithm is the "paper" row — the
// Fig. 2 chain — and it competes against the rival designs §6 of the paper
// argues about: the unified-machine upper bound, a greedy unified-assign-
// and-schedule scheduler (the UAS family of Özer et al.) and a naive modulo
// distribution. A strategy is a value; RegisterStrategy adds a row.

import (
	"fmt"
	"sort"
	"sync"

	"clusched/internal/machine"
)

// DefaultStrategy is the strategy an empty Options.Strategy selects: the
// paper's multilevel partition + replication pipeline.
const DefaultStrategy = "paper"

// Strategy is one cluster-assignment algorithm: the pass chain the II
// search drives and what the search needs to know about it. One registered
// Strategy serves every compilation concurrently, so its chain and its
// functions must be stateless.
type Strategy struct {
	// Name is the registry key and the canonical Options.Strategy value.
	Name string
	// Description is the one-line summary listings print (GET /strategies,
	// the README table, examples).
	Description string
	// Chain is the pass chain the search drives. The search only reads it,
	// so every compilation shares the slice.
	Chain []Pass
	// Validate rejects option or machine combinations the strategy cannot
	// honor, once per compilation, before the search; nil accepts every
	// combination.
	Validate func(opts Options, m machine.Config) error
	// EffectiveMachine, when set, rewrites the machine the strategy
	// compiles for; the Result's Machine field reports the rewritten one.
	EffectiveMachine func(m machine.Config) machine.Config
}

// strategies is the table RegisterStrategy starts from.
var strategies = []Strategy{{
	Name:        "paper",
	Description: "multilevel partition + selective replication + modulo scheduling (the paper's algorithm)",
	Chain:       paperChain,
}, {
	// On a single cluster the paper's chain degenerates exactly as needed:
	// the partition is trivial, replication a structural no-op, and only
	// the scheduler does work — the Fig. 8 upper bound.
	Name:        "unified",
	Description: "single-cluster upper bound: schedule on the monolithic machine with the same total resources",
	Chain:       paperChain,
	Validate: func(_ Options, m machine.Config) error {
		if m.Hetero != nil {
			return fmt.Errorf("pipeline: strategy %q: heterogeneous machine %s has no unified equivalent", "unified", m)
		}
		return nil
	},
	// The monolithic machine with the clustered one's total register
	// budget; Table 1 keeps total FU counts equal across cluster counts.
	EffectiveMachine: func(m machine.Config) machine.Config {
		if !m.Clustered() {
			return m
		}
		return machine.Unified(m.Regs * m.Clusters)
	},
}, {
	Name:        "uas",
	Description: "greedy unified assign-and-schedule: each node picks its cluster during placement by FU/bus availability (no partition pass)",
	Chain:       []Pass{UASAssignPass{}, SchedulePass{}, VerifyPass{}},
	Validate:    noReplicationPass,
}, {
	Name:        "moddist",
	Description: "round-robin modulo distribution of the topological order onto clusters (naive pre-partitioning baseline)",
	Chain:       []Pass{ModDistPass{}, SchedulePass{}, VerifyPass{}},
	Validate:    noReplicationPass,
}}

// noReplicationPass fails options only the paper chain implements: a
// strategy without a replication pass must not silently accept (and
// cache-key on) replication flags.
func noReplicationPass(opts Options, _ machine.Config) error {
	var flag string
	switch {
	case opts.Replicate:
		flag = "Replicate"
	case opts.LengthReplicate:
		flag = "LengthReplicate"
	case opts.UseMacroReplication:
		flag = "UseMacroReplication"
	default:
		return nil
	}
	return fmt.Errorf("pipeline: strategy %q has no replication pass (Options.%s)", opts.Strategy, flag)
}

var (
	strategyMu  sync.RWMutex
	strategyReg = map[string]Strategy{}
)

func init() {
	for _, s := range strategies {
		RegisterStrategy(s)
	}
}

// RegisterStrategy adds a strategy to the registry. It panics on an empty
// name or a duplicate registration — strategies are wired up in init
// functions, where a collision is a programming error.
func RegisterStrategy(s Strategy) {
	if s.Name == "" {
		panic("pipeline: RegisterStrategy with empty name")
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategyReg[s.Name]; dup {
		panic(fmt.Sprintf("pipeline: strategy %q registered twice", s.Name))
	}
	strategyReg[s.Name] = s
}

// LookupStrategy resolves a strategy name, the empty string resolving to
// DefaultStrategy. A name nothing registered is an *UnknownStrategyError.
func LookupStrategy(name string) (Strategy, error) {
	key := name
	if key == "" {
		key = DefaultStrategy
	}
	strategyMu.RLock()
	s, ok := strategyReg[key]
	strategyMu.RUnlock()
	if !ok {
		return Strategy{}, &UnknownStrategyError{Name: name}
	}
	return s, nil
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

// StrategyDescription returns the strategy's one-line description ("" for
// an unknown name).
func StrategyDescription(name string) string {
	s, _ := LookupStrategy(name)
	return s.Description
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

// resolveStrategy looks up opts.Strategy, validates the options against
// it, and returns it with the machine it compiles for.
func resolveStrategy(opts Options, m machine.Config) (Strategy, machine.Config, error) {
	s, err := LookupStrategy(opts.Strategy)
	if err == nil && s.Validate != nil {
		err = s.Validate(opts, m)
	}
	if err != nil {
		return Strategy{}, m, err
	}
	if s.EffectiveMachine != nil {
		m = s.EffectiveMachine(m)
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
