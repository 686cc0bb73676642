package storage

import (
	"fmt"
	"strings"
	"sync"

	"quokka/internal/metrics"
)

// Durability profiles for the object store, selecting which cost link is
// charged per operation.
type Profile uint8

// Object store profiles.
const (
	ProfileS3 Profile = iota
	ProfileHDFS
)

func (p Profile) String() string {
	if p == ProfileHDFS {
		return "hdfs"
	}
	return "s3"
}

// Objects is durable shared storage (the S3/HDFS role) as a worker uses it:
// table splits, a query's spooled piece sets and checkpoint snapshots
// (docs/contracts/storage-objects.md). ObjectStore is the in-memory default,
// a wire client in a worker process; table loads, catalog reads and the
// per-query sweep are the head's own, on its *ObjectStore.
type Objects interface {
	Put(key string, value []byte) error
	Get(key string) ([]byte, error)
	GetMany(keys []string) ([][]byte, error)
}

// ObjectStore simulates durable shared storage (S3 or HDFS). It survives
// worker failures. Input tables live here, and the spooling/checkpointing
// fault-tolerance baselines write here — which is exactly why they are
// expensive (Figure 9 of the paper).
type ObjectStore struct {
	cost    CostModel
	profile Profile
	met     *metrics.Collector

	mu   sync.RWMutex
	data map[string][]byte
	gen  uint64 // table loads so far: what a remote cache of tables is valid under
}

// NewObjectStore creates an empty durable store with the given profile.
func NewObjectStore(cost CostModel, profile Profile, met *metrics.Collector) *ObjectStore {
	return &ObjectStore{cost: cost, profile: profile, met: met, data: make(map[string][]byte)}
}

func (s *ObjectStore) link() LinkCost {
	if s.profile == ProfileHDFS {
		return s.cost.HDFS
	}
	return s.cost.S3
}

// Put durably stores value under key, billed at the store's link. It does
// not move PutGen: a cache of tables never has to drop a query's objects.
func (s *ObjectStore) Put(key string, value []byte) error {
	s.cost.Apply(s.link(), int64(len(value)))
	s.set(key, value, 0)
	s.met.Add(metrics.ObjWriteBytes, int64(len(value)))
	s.met.Add(metrics.ObjWrites, 1)
	return nil
}

// PutFree stores value without applying I/O cost. The TPC-H loader uses it
// so that dataset preparation is not billed to the query under test.
func (s *ObjectStore) PutFree(key string, value []byte) { s.set(key, value, 1) }

func (s *ObjectStore) set(key string, value []byte, loads uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = append([]byte(nil), value...)
	s.gen += loads
}

// PutGen returns how many PutFree loads the store has applied. Whoever
// caches its tables elsewhere (a worker process, docs/contracts/
// storage-objects.md) holds them valid only while this stands still.
func (s *ObjectStore) PutGen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Get retrieves the value under key.
func (s *ObjectStore) Get(key string) ([]byte, error) {
	v, err := s.GetFree(key)
	if err != nil {
		return nil, err
	}
	s.cost.Apply(s.link(), int64(len(v)))
	s.met.Add(metrics.ObjReadBytes, int64(len(v)))
	s.met.Add(metrics.ObjReads, 1)
	return v, nil
}

// GetMany retrieves the value under each key, each read costed and metered
// as a Get: a remote client fetches them in one request, this store one by
// one.
func (s *ObjectStore) GetMany(keys []string) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := s.Get(k)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// GetFree retrieves the value under key without applying I/O cost or
// metrics. The head's planner uses it for catalog metadata (table schemas
// and row counts): planning reads are not part of the measured query, just
// as PutFree keeps dataset preparation off the bill.
func (s *ObjectStore) GetFree(key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: object %q not found", key)
	}
	return v, nil
}

// DeletePrefix removes every object whose key has the given prefix and
// returns how many it removed. It does not move PutGen.
func (s *ObjectStore) DeletePrefix(prefix string) (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			delete(s.data, k)
			n++
		}
	}
	return n
}
