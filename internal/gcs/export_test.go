package gcs

// versionSum is the sum of every shard's commit counter: it moves on every
// committed write of any namespace, the tests' "nothing changed anywhere"
// probe.
func (s *Store) versionSum() (v uint64) {
	for i := range s.shards {
		v += s.shards[i].ver.Load()
	}
	return v
}
