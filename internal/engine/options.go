package engine

import "quokka/internal/cluster"

// Option is a cluster-level tuning knob applied with Configure (or passed
// through the public quokka.NewCluster / quokka.NewSession constructors).
// Options configure the engine state shared by every query on one cluster
// — admission, process mode, and the defaults a query's Config falls back
// to — as opposed to Config, which tunes one execution.
type Option func(*clusterShared)

// WithAdmissionLimit bounds how many queries the cluster executes
// concurrently (FIFO queueing beyond the bound). n <= 0 restores
// DefaultAdmissionLimit. Raising the limit immediately admits queued
// queries; lowering it only affects future admissions.
func WithAdmissionLimit(n int) Option {
	return func(s *clusterShared) {
		if n <= 0 {
			n = DefaultAdmissionLimit
		}
		s.admit.setLimit(n)
	}
}

// WithTracing enables (or disables) the per-query flight recorder: with it
// on, every query submitted afterwards records structured spans — task
// executions, partition pushes, lineage flushes, admission wait, recovery
// rewinds and replays — retrievable through Query.Trace, Query.Stats and
// Result.ExplainAnalyze. Off by default; disabled tracing records nothing
// and allocates nothing on the task hot path. Tracing observes and never
// gates: results are byte-identical with it on or off.
func WithTracing(on bool) Option {
	return inherited(func(o *clusterOptions) { o.tracing = on })
}

// WithListenAddr switches the cluster into process mode: the head serves
// its control plane — GCS transactions, the object store and the result
// sink — to quokka-worker processes (each hosting its own flight mailbox)
// over TCP on the given address (e.g. "127.0.0.1:7070", or ":0" for an ephemeral port). Empty
// (the default) keeps the cluster fully in-memory.
//
// Experimental: the wire protocol and this option's shape may change.
func WithListenAddr(addr string) Option {
	return func(s *clusterShared) {
		s.mu.Lock()
		s.listenAddr = addr
		s.mu.Unlock()
	}
}

// ListenAddr returns the cluster's configured process-mode listen address
// ("" = in-memory only).
func ListenAddr(cl *cluster.Cluster) string {
	s := sharedFor(cl)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.listenAddr
}

// Configure applies cluster-level options. It may be called at any time;
// each option documents whether in-flight queries observe the change.
func Configure(cl *cluster.Cluster, opts ...Option) {
	s := sharedFor(cl)
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
}

// inherited builds an Option that edits the settings queries inherit.
func inherited(set func(*clusterOptions)) Option {
	return func(s *clusterShared) {
		s.mu.Lock()
		set(&s.opts)
		s.mu.Unlock()
	}
}

// options snapshots the cluster-level settings for resolve.
func (s *clusterShared) options() clusterOptions {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts
}
