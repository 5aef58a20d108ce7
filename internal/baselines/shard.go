package baselines

import "repro/internal/sim"

// Sharded-execution support (sim.ShardedPolicy). A baseline may only opt in
// when its decisions for a function depend on nothing outside that
// function's app/user component: FixedKeepAlive and HybridFunction are
// purely per-function, HybridApplication aggregates per application (apps
// never cross shards), and Defuse mines dependencies within applications
// and keeps per-function histograms. FaaSCache and LCS do NOT implement the
// interface — their global capacity couples every function to every other,
// so INDEPENDENT per-shard instances would evict differently than one
// global instance. They shard through the capacity-arbitrated engine
// instead (sim.CapacityPolicy; see capacity.go).

// NewShard implements sim.ShardedPolicy. Shards of the deadline-based
// policies inherit the parent's agenda constructor.
func (p *FixedKeepAlive) NewShard() sim.Policy {
	s := NewFixedKeepAlive(p.keepAlive)
	s.newAgenda = p.newAgenda
	return s
}

// NewShard implements sim.ShardedPolicy.
func (p *Hybrid) NewShard() sim.Policy {
	return &Hybrid{cfg: p.cfg, appWise: p.appWise, newAgenda: p.newAgenda}
}

// NewShard implements sim.ShardedPolicy.
func (p *Defuse) NewShard() sim.Policy { return &Defuse{cfg: p.cfg, newAgenda: p.newAgenda} }

// Shard-cache support (sim.ConfigHasher), for the same set of policies
// (the capacity-coupled baselines hash in capacity.go). Each hash covers
// the policy's complete behaviour-affecting configuration via
// sim.HashConfig, so adding a config field invalidates old cache entries
// automatically.

// ConfigHash implements sim.ConfigHasher.
func (p *FixedKeepAlive) ConfigHash() uint64 {
	return sim.HashConfig(struct{ KeepAlive int }{p.keepAlive})
}

// ConfigHash implements sim.ConfigHasher. appWise is part of the hash even
// though HF and HA also differ by Name(): the key must stay correct if the
// names ever converge.
func (p *Hybrid) ConfigHash() uint64 {
	return sim.HashConfig(struct {
		Cfg     HybridConfig
		AppWise bool
	}{p.cfg, p.appWise})
}

// ConfigHash implements sim.ConfigHasher.
func (p *Defuse) ConfigHash() uint64 { return sim.HashConfig(p.cfg) }
