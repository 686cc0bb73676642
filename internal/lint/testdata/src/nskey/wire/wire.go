// Package wire exercises the nskey analyzer against the wire-handler
// pattern: the head's transaction handler (Server.handleGCS) asks the store
// to enumerate a namespace that arrived from a remote caller as opaque
// bytes, so the handler is an audited sweep — including range calls made
// from closures inside it. Everything else about the discipline still holds
// in such a package: no blessed prefix helpers live here, so every raw
// namespace literal is a violation, and range calls outside the handler
// stay illegal.
package wire

// Store mimics the head's GCS store; Sync is the pinned range scan (what
// changed in a namespace since a version).
type Store struct{}

func (Store) Sync(ns string, since uint64) []string { return nil }
func (Store) Put(k string, v []byte)                {}

// Server mimics the wire server.
type Server struct{ store Store }

// handleGCS is the audited handler: the namespace it enumerates was built by
// a blessed helper on the REMOTE side and reaches this function as opaque
// bytes off the conn.
func (s *Server) handleGCS(remoteNS string) {
	_ = s.store.Sync(remoteNS, 0)
	// Attribution must follow the enclosing declaration into closures.
	answer := func() {
		_ = s.store.Sync(remoteNS, 0)
	}
	answer()
}

// handleOp is NOT the audited handler: ranging here is illegal even with
// the same opaque argument.
func (s *Server) handleOp(remoteNS string) {
	_ = s.store.Sync(remoteNS, 0) // want "Sync call outside the audited sweep functions"
}

// No wire function is blessed for any prefix literal: constructing a
// namespace key here is a violation, handler or not.
func (s *Server) forgeKey(qid string) {
	s.store.Put("q/"+qid+"/lin/0", nil) // want "raw \"q/\" namespace literal"
}
