package cluster

import (
	"testing"

	"quokka/internal/storage"
)

func TestNewCluster(t *testing.T) {
	c, err := New(Options{Workers: 4, Cost: storage.TestCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workers) != 4 || c.AliveCount() != 4 {
		t.Fatalf("workers: %d, alive: %d", len(c.Workers), c.AliveCount())
	}
	if _, err := New(Options{Workers: 0}); err == nil {
		t.Error("want error for zero workers")
	}
}

func TestKillWorker(t *testing.T) {
	c, _ := New(Options{Workers: 3, Cost: storage.TestCostModel()})
	w := c.Worker(1)
	w.Disk.Write("k", []byte("v"))
	select {
	case <-w.Killed():
		t.Fatal("Killed closed before Kill")
	default:
	}
	w.Kill()
	w.Kill() // idempotent
	if w.Alive() {
		t.Error("worker should be dead")
	}
	select {
	case <-w.Killed():
	default:
		t.Error("Killed channel should be closed")
	}
	if _, err := w.Disk.Read("k"); err != storage.ErrWiped {
		t.Errorf("disk after kill: %v", err)
	}
	alive := c.Alive()
	if len(alive) != 2 || alive[0] != 0 || alive[1] != 2 {
		t.Errorf("Alive = %v", alive)
	}
}

func TestSharedObjStore(t *testing.T) {
	met := storage.TestCostModel()
	shared := storage.NewObjectStore(met, storage.ProfileS3, nil)
	shared.PutFree("data", []byte("x"))
	c, _ := New(Options{Workers: 1, Cost: met, ObjStore: shared})
	if c.ObjStore != storage.Objects(shared) {
		t.Error("cluster should use the provided object store")
	}
}
