package core

import "repro/internal/sim"

// NewDenseReference returns the per-slot scan oracle (dense_test.go) to the
// external test package, which may import internal/experiments.
func NewDenseReference(cfg Config) sim.Policy { return newDenseSPES(cfg) }
