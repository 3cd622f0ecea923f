// Package repro is a from-scratch Go reproduction of "Don't Let RPCs
// Constrain Your API" (Bittman et al., HotNets 2021): a data-centric
// alternative to RPC built on a global address space of 128-bit object
// identifiers, first-class cross-machine references, a network that
// routes on data identity, and system-chosen rendezvous of code and
// data.
//
// The public surface lives under internal/ (this module is a
// self-contained research artifact): internal/core is the runtime,
// internal/experiments regenerates every figure and table in the
// paper's evaluation, cmd/gaspbench prints them, and examples/ holds
// four runnable scenarios. See README.md for a tour, DESIGN.md for the
// system inventory and simulation substitutions, and EXPERIMENTS.md
// for paper-vs-measured results.
package repro
