package flight

import (
	"testing"

	"quokka/internal/lineage"
)

// SpoolResult and FetchResult, the two Server methods on no contract: a
// payload parked under a task name, read back, fenced by epoch, swept with its
// query and gone with the worker.

func rtask(seq int) lineage.TaskName { return lineage.TaskName{Stage: 2, Channel: 0, Seq: seq} }

func TestSpoolFetchDropResult(t *testing.T) {
	s := newServer()
	if err := s.SpoolResult("q1", rtask(0), []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	got, err := s.FetchResult("q1", rtask(0))
	if err != nil || string(got) != "payload" {
		t.Fatalf("FetchResult = %q, %v", got, err)
	}
	// Idempotent overwrite (task retried after an aborted commit).
	s.SpoolResult("q1", rtask(0), []byte("retry"), 0)
	if got, _ := s.FetchResult("q1", rtask(0)); string(got) != "retry" {
		t.Errorf("after overwrite = %q", got)
	}
	if _, err := s.FetchResult("q1", rtask(1)); err == nil {
		t.Error("FetchResult of a task never spooled should fail")
	}
	s.DropQuery("q1")
	if _, err := s.FetchResult("q1", rtask(0)); err == nil {
		t.Error("FetchResult after the query's sweep should fail")
	}
}

func TestSpooledResultsAreQueryIsolated(t *testing.T) {
	s := newServer()
	s.SpoolResult("q1", rtask(0), []byte("one"), 0)
	s.SpoolResult("q2", rtask(0), []byte("two"), 0)
	s.DropQuery("q1")
	if _, err := s.FetchResult("q1", rtask(0)); err == nil {
		t.Error("q1 spool should be gone after DropQuery")
	}
	if got, err := s.FetchResult("q2", rtask(0)); err != nil || string(got) != "two" {
		t.Errorf("q2 spool = %q, %v after q1 teardown", got, err)
	}
}

func TestSpoolDiesWithServer(t *testing.T) {
	s := newServer()
	s.SpoolResult("q1", rtask(0), []byte("x"), 0)
	s.Fail()
	if err := s.SpoolResult("q1", rtask(1), []byte("y"), 0); err != ErrServerDown {
		t.Errorf("SpoolResult after fail = %v", err)
	}
	if _, err := s.FetchResult("q1", rtask(0)); err != ErrServerDown {
		t.Errorf("FetchResult after fail = %v", err)
	}
}
