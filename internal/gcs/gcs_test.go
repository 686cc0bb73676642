package gcs

import (
	"fmt"
	"sync"
	"testing"

	"quokka/internal/metrics"
	"quokka/internal/storage"
)

func newStore() (*Store, *metrics.Collector) {
	met := &metrics.Collector{}
	return New(storage.TestCostModel(), met), met
}

func TestPutGetDelete(t *testing.T) {
	s, met := newStore()
	err := s.UpdateNS("", func(tx *Txn) error {
		tx.Put("a", []byte("1"))
		tx.Put("b", []byte("2"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.View(func(tx *Txn) error {
		if v, ok := tx.Get("a"); !ok || string(v) != "1" {
			t.Errorf("Get(a) = %q, %t", v, ok)
		}
		if _, ok := tx.Get("zzz"); ok {
			t.Error("Get(zzz) should miss")
		}
		return nil
	})
	s.UpdateNS("", func(tx *Txn) error {
		tx.Delete("a")
		return nil
	})
	s.View(func(tx *Txn) error {
		if _, ok := tx.Get("a"); ok {
			t.Error("a should be deleted")
		}
		return nil
	})
	if met.Get(metrics.GCSTxns) != 4 {
		t.Errorf("txns = %d, want 4", met.Get(metrics.GCSTxns))
	}
}

func TestTxnReadsOwnWrites(t *testing.T) {
	s, _ := newStore()
	s.UpdateNS("", func(tx *Txn) error {
		tx.Put("k", []byte("v"))
		if v, ok := tx.Get("k"); !ok || string(v) != "v" {
			t.Error("txn should see its own write")
		}
		tx.Delete("k")
		if _, ok := tx.Get("k"); ok {
			t.Error("txn should see its own delete")
		}
		return nil
	})
}

func TestAbortDiscardsWrites(t *testing.T) {
	s, _ := newStore()
	err := s.UpdateNS("", func(tx *Txn) error {
		tx.Put("x", []byte("1"))
		return ErrAborted
	})
	if err != ErrAborted {
		t.Fatalf("err = %v", err)
	}
	s.View(func(tx *Txn) error {
		if _, ok := tx.Get("x"); ok {
			t.Error("aborted write leaked")
		}
		return nil
	})
}

func TestListWithPrefix(t *testing.T) {
	s, _ := newStore()
	s.UpdateNS("", func(tx *Txn) error {
		tx.Put("task/1", nil)
		tx.Put("task/2", nil)
		tx.Put("lineage/1", nil)
		return nil
	})
	s.UpdateNS("", func(tx *Txn) error {
		tx.Put("task/3", []byte("new"))
		tx.Delete("task/1")
		got := tx.List("task/")
		want := []string{"task/2", "task/3"}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("List = %v, want %v", got, want)
		}
		return nil
	})
}

func TestConcurrentCountersAreSerializable(t *testing.T) {
	s, _ := newStore()
	s.UpdateNS("", func(tx *Txn) error { tx.Put("n", []byte("0")); return nil })
	var wg sync.WaitGroup
	const workers, iters = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.UpdateNS("", func(tx *Txn) error {
					v, _ := tx.Get("n")
					var n int
					fmt.Sscanf(string(v), "%d", &n)
					tx.Put("n", []byte(fmt.Sprintf("%d", n+1)))
					return nil
				})
			}
		}()
	}
	wg.Wait()
	s.View(func(tx *Txn) error {
		v, _ := tx.Get("n")
		if string(v) != fmt.Sprintf("%d", workers*iters) {
			t.Errorf("lost updates: n = %s, want %d", v, workers*iters)
		}
		return nil
	})
}

func TestViewPutPanics(t *testing.T) {
	s, _ := newStore()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on Put in View")
		}
	}()
	s.View(func(tx *Txn) error {
		tx.Put("k", nil)
		return nil
	})
}
