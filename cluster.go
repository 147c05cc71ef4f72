package clusched

import (
	"fmt"
	"strings"

	"clusched/internal/cluster"
)

// Cluster is the fleet Backend: it fans Stream batches across N
// clusched-serve instances, routing each job by consistent hashing on the
// canonical-fingerprint component of its cache identity — so isomorphic
// clones of a loop always land on the same node and hit that node's
// semantic cache tier — with health-checked membership, per-node in-flight
// windows, hedged dispatch for stragglers and transport-aware failover. Construct it with NewCluster; see FleetStats for the
// fleet-wide /stats rollup and Registry for the per-node Prometheus
// instruments.
type Cluster = cluster.Cluster

// FleetStats is the fleet-wide statistics rollup (Cluster.FleetStats):
// per-node dispatch/hedge/ejection counters plus each node's own
// service stats, with the fleet sums a capacity dashboard wants first.
type FleetStats = cluster.FleetStats

// NodeStats is one node's slice of a FleetStats rollup.
type NodeStats = cluster.NodeStats

// The fleet backend satisfies the same contract as the local engine and
// the single-server client — the compile-time pin behind running the
// backend conformance suite against a 3-node in-process fleet.
var _ Backend = (*Cluster)(nil)

// NewCluster builds the fleet Backend over the clusched-serve instances at
// the given base URLs (e.g. "http://10.0.0.7:8357"). Fleet options
// (WithHedge, WithNodeInFlight, WithHealthInterval) and client options
// (WithHTTPClient, WithTimeout — applied to every per-node exchange)
// apply. Like the other backend constructors it panics on construction
// mistakes (no nodes, duplicate nodes) rather than limping along
// misconfigured. Close the returned Cluster to stop its membership probes.
//
// Routing is a pure function of the node URLs, so every client of the same
// fleet sends a given loop (and all of its isomorphic clones) to the same
// node, across processes and restarts — that is what keeps each node's
// DiskCache and semantic index hot for its shard.
func NewCluster(nodes []string, opts ...Option) *Cluster {
	s := applySettings("NewCluster", scopeCluster|scopeClient, opts)
	if len(nodes) == 0 {
		panic("clusched: NewCluster needs at least one node URL")
	}
	timeout := DefaultClientTimeout
	if s.client.hasTimeout {
		timeout = s.client.timeout
	}
	members := make([]cluster.Member, len(nodes))
	for i, base := range nodes {
		name := strings.TrimRight(base, "/")
		members[i] = cluster.Member{Name: name, Node: cluster.NewHTTPNode(name, s.client.httpClient, timeout)}
	}
	cfg := cluster.Config{
		Members:      members,
		NodeInFlight: s.cluster.nodeInFlight,
	}
	if s.cluster.hasHedge {
		cfg.Hedge = s.cluster.hedge
	}
	if s.cluster.hasHealth {
		cfg.HealthInterval = s.cluster.healthInterval
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("clusched: NewCluster: %v", err))
	}
	return cl
}
