package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// WorkerQuerySpec is everything a worker process needs to execute its
// share of one query: the physical plan and the policy the head resolved at
// submit time — the execution config with its floors applied, and tracing.
// The worker runs the query under exactly that policy and resolves nothing
// itself. It travels gob-encoded inside the wire layer's START_QUERY
// message.
//
// Plans are serializable because every built-in operator spec and
// expression node is a data-only value type registered with gob (see
// internal/ops/gob.go and internal/expr/gob.go). A plan carrying a spec of
// any other type fails at Encode time.
type WorkerQuerySpec struct {
	QueryID string
	Plan    *Plan
	Cfg     Policy
}

// Encode serializes the spec for the wire.
func (s *WorkerQuerySpec) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("engine: encode worker spec: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeWorkerSpec parses a wire-shipped spec and validates its plan.
func DecodeWorkerSpec(data []byte) (*WorkerQuerySpec, error) {
	var s WorkerQuerySpec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("engine: decode worker spec: %w", err)
	}
	if s.Plan == nil {
		return nil, fmt.Errorf("engine: worker spec has no plan")
	}
	if err := s.Plan.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WorkerSpec builds the spec remote workers need to execute this runner's
// query. Called by the wire layer when RemoteExec.StartQuery ships the
// query out.
func (r *Runner) WorkerSpec() *WorkerQuerySpec {
	return &WorkerQuerySpec{QueryID: r.qid, Plan: r.plan, Cfg: r.cfg}
}
