package lint

// This file is the repo-specific invariant encoding: which packages and
// functions the generic analyzers bless. Every entry corresponds to an
// invariant written down in ROADMAP.md — change the code and this file
// together, deliberately, or the suite fails CI.

// DefaultAnalyzers returns the production-configured analyzer suite run
// by `go test ./internal/lint` and `cmd/quokka-vet`.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		// ROADMAP: "The same 64-bit hash is computed once per row ... No
		// second hash function." fnv (inlined in internal/batch/key.go)
		// is the only hash; nothing else may import a hash package or
		// spell the fnv constants. (The QBA2 encoder's dictionary directory,
		// also in internal/batch, indexes distinct column values by a
		// multiplicative mix; that index never leaves the encoder, so it is
		// no second routing or key hash.)
		NewHashOnce(HashOnceConfig{
			// internal/lint itself is allowed: it spells the fnv
			// constants as the DATA it detects them by.
			AllowedPkgs: []string{"quokka/internal/batch", "quokka/internal/lint"},
		}),

		// ROADMAP: "All per-query state is namespaced by the cluster-
		// unique query id ... never sweep a bare spill/ or un-prefixed
		// GCS range." One blessed construction site per namespace prefix,
		// and range deletes/scans only in the audited per-query sweeps.
		NewNSKey(NSKeyConfig{
			Prefixes: map[string][]FuncRef{
				// q/<qid>/... — the GCS key namespace: built by
				// QueryNamespace, parsed back by the store's shard mapper.
				"q/": {
					{Pkg: "quokka/internal/engine", Name: "QueryNamespace"},
					{Pkg: "quokka/internal/gcs", Name: "nsOf"},
				},
				// spill/<qid>/... — spill run files on worker disks.
				"spill/": {{Pkg: "quokka/internal/engine", Name: "spillQueryPrefix"}},
				// bk/<qid>/... — upstream partition backups on disks.
				"bk/": {{Pkg: "quokka/internal/engine", Name: "backupQueryPrefix"}},
				// tbl/<name>/... — table catalog + split objects.
				"tbl/": {{Pkg: "quokka/internal/engine", Name: "tablePrefix"}},
				// ft/<qid>/... — spooled piece sets and checkpoint snapshots,
				// parsed back by the wire server's put check.
				"ft/": {{Pkg: "quokka/internal/engine", Name: "ObjectPrefix"}, {Pkg: "quokka/internal/engine", Name: "ObjectQuery"}},
			},
			SweepFuncs: []FuncRef{
				// The per-query teardown/rewind sweeps (arguments built by
				// the blessed helpers above) and the snapshot's replay-
				// queue scan (prefix q/<qid>/rp/). runTaskManager —
				// the one launch of a worker's task manager, in the head's
				// process or a worker's — sweeps THAT worker's disk of the
				// one query's spill/backup namespaces as its threads exit.
				// Runner.cleanup sweeps the head's object store of ft/<qid>/.
				{Pkg: "quokka/internal/engine", Name: "Runner.cleanup"},
				{Pkg: "quokka/internal/engine", Name: "Runner.runTaskManager"},
				{Pkg: "quokka/internal/engine", Name: "taskManager.resetChannel"},
				{Pkg: "quokka/internal/engine", Name: "Runner.loadReplays"},
				// The wire server's transaction handler has the store
				// enumerate a namespace a REMOTE caller named (Sync and
				// ApplySync answer with what changed in it): the prefix was built
				// worker-side by the blessed helper and arrives as opaque
				// bytes. The handler is audited to refuse anything but exactly
				// one query's namespace — wire code still cannot construct
				// namespace prefixes of its own (no wire package is blessed).
				{Pkg: "quokka/internal/wire", Name: "Server.handleGCS"},
			},
			SweepMethodNames: []string{"DeletePrefix"},
			RangeMethods: map[string]string{"List": "gcs.Txn", "DeleteNS": "gcs.Txn",
				"Sync": "gcs.Store", "ApplySync": "gcs.Store"},
			// Dropping a query's whole GCS namespace is teardown's alone:
			// Runner.cleanup, once the query's task managers have stopped.
			MethodCallers: map[string][]FuncRef{
				"DeleteNS": {{Pkg: "quokka/internal/engine", Name: "Runner.cleanup"}},
			},
			DefiningPkgs: []string{
				"quokka/internal/storage",
				"quokka/internal/gcs",
			},
			// The linter's own config spells the prefixes as data.
			ExemptPkgs: []string{"quokka/internal/lint"},
		}),

		// ROADMAP: "Tracing observes, never gates ... no execution path
		// waits on, branches on, or allocates for the recorder beyond the
		// one `rec != nil` check."
		NewTraceGate(TraceGateConfig{
			RecorderType: "trace.Recorder",
			ExemptPkgs:   []string{"quokka/internal/trace"},
		}),

		// ROADMAP: "planning is a deterministic pure function of query +
		// catalog ... WAL replay rebuilds identical stages." Go's map
		// iteration order is randomized per run; it must not reach plan
		// or expression-analysis output.
		NewDetRange(DetRangeConfig{
			Pkgs: []string{"quokka/internal/plan", "quokka/internal/expr"},
		}),
	}
}
