package storage

import (
	"fmt"
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

// Objects is durable shared storage (the S3/HDFS role) as the engine reads
// and loads tables through it — exactly the methods table.go calls,
// specified in docs/contracts/storage-objects.md. It survives worker
// failures. ObjectStore is the in-memory default; process-mode workers use
// a wire client that proxies these calls to the head. Spooled partitions
// and checkpoints go through a runner's own *ObjectStore, not through this
// interface, so it carries no costed write, delete or listing.
type Objects interface {
	PutFree(key string, value []byte)
	Get(key string) ([]byte, error)
	GetMany(keys []string) ([][]byte, error)
	GetFree(key string) ([]byte, error)
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
	gen  uint64 // puts so far: what a remote cache of objects is valid under
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

// Put durably stores value under key.
func (s *ObjectStore) Put(key string, value []byte) error {
	s.cost.Apply(s.link(), int64(len(value)))
	s.mu.Lock()
	cp := make([]byte, len(value))
	copy(cp, value)
	s.data[key] = cp
	s.gen++
	s.mu.Unlock()
	s.met.Add(metrics.ObjWriteBytes, int64(len(value)))
	s.met.Add(metrics.ObjWrites, 1)
	return nil
}

// PutFree stores value without applying I/O cost. The TPC-H loader uses it
// so that dataset preparation is not billed to the query under test.
func (s *ObjectStore) PutFree(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(value))
	copy(cp, value)
	s.data[key] = cp
	s.gen++
}

// PutGen returns how many puts the store has applied. Whoever
// caches its objects elsewhere (a worker process, docs/contracts/
// storage-objects.md) holds them valid only while this stands still.
func (s *ObjectStore) PutGen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Get retrieves the value under key.
func (s *ObjectStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: object %q not found", key)
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
// metrics. The query planner uses it for catalog metadata (table schemas
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
