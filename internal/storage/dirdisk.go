package storage

import (
	"encoding/base64"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"quokka/internal/metrics"
)

// DirDisk is a Disk backed by a real directory — the spill/backup drive of
// a quokka-worker process. No modelled cost is applied: the I/O is real, so
// wall-clock measures it. What is stored is indexed in memory, key → slot
// (the index, like the directory, dies with the process), and a value is
// kept one of three ways. No bytes — most upstream backups: a task that
// emitted no rows — the index entry alone. Up to packValueMax: back to back
// with the others in one file, ".pack", by one pwrite; a file of its own
// would cost a create and an unlink, which on a busy journalled filesystem
// block for longer than a small task runs (0.2–0.3 ms a create under the
// benchmark's proc workload, whose pass of 115 backed-up tasks takes 0.1 s).
// Larger (spill runs), or once the pack holds packMax bytes: a file of its
// own, named by the base64url of the key (keys contain '/' and arbitrary
// bytes). A deleted packed value leaves its bytes behind until the pack's
// last value goes and it is truncated — a query's backups go together, at
// teardown — so packMax bounds what is left behind.
type DirDisk struct {
	dir string
	met *metrics.Collector

	mu    sync.RWMutex // DeletePrefix and Wipe exclude every other operation
	wiped bool
	index sync.Map // key string -> slot

	pmu    sync.Mutex
	pack   *os.File // created with the first packed value
	packed int      // values in the pack
	end    int64    // where the next one goes
}

// slot is where a value is: at off in the pack, or (off < 0) in its own file.
type slot struct{ size, off int64 }

const (
	packValueMax = 64 << 10
	packMax      = 64 << 20
)

// NewDirDisk creates (if needed) and opens dir as a disk. Pre-existing
// files from a previous incarnation are removed: a restarted worker
// process starts with the empty drive a replacement spot instance has.
func NewDirDisk(dir string, met *metrics.Collector) (*DirDisk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: dirdisk %s: %w", dir, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: dirdisk %s: %w", dir, err)
	}
	for _, e := range ents {
		os.Remove(filepath.Join(dir, e.Name()))
	}
	return &DirDisk{dir: dir, met: met}, nil
}

func (d *DirDisk) path(key string) string {
	return filepath.Join(d.dir, base64.RawURLEncoding.EncodeToString([]byte(key)))
}

// place reserves n bytes of the pack, or returns -1: a file of its own.
func (d *DirDisk) place(n int) (off int64, err error) {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	if n > packValueMax || d.end+int64(n) > packMax {
		return -1, nil
	}
	if d.pack == nil { // '.' is outside the base64url alphabet: no key's file
		if d.pack, err = os.OpenFile(filepath.Join(d.dir, ".pack"), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
			return -1, err
		}
	}
	d.packed++
	off, d.end = d.end, d.end+int64(n)
	return off, nil
}

// Write stores value under key.
func (d *DirDisk) Write(key string, value []byte) (err error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.wiped {
		return ErrWiped
	}
	d.remove(key) // what it held before
	s := slot{size: int64(len(value)), off: -1}
	if len(value) > 0 {
		if s.off, err = d.place(len(value)); err == nil && s.off >= 0 {
			_, err = d.pack.WriteAt(value, s.off)
		} else if err == nil {
			err = os.WriteFile(d.path(key), value, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("storage: dirdisk write %q: %w", key, err)
	}
	d.index.Store(key, s)
	d.met.Add(metrics.DiskWriteBytes, s.size)
	return nil
}

// Read returns the value stored under key.
func (d *DirDisk) Read(key string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.wiped {
		return nil, ErrWiped
	}
	at, ok := d.index.Load(key)
	if !ok {
		return nil, fmt.Errorf("storage: disk key %q not found", key)
	}
	s, err := at.(slot), error(nil)
	v := make([]byte, s.size)
	if s.off >= 0 {
		_, err = d.pack.ReadAt(v, s.off)
	} else if s.size > 0 {
		v, err = os.ReadFile(d.path(key))
	}
	if err != nil {
		return nil, fmt.Errorf("storage: dirdisk read %q: %w", key, err)
	}
	d.met.Add(metrics.DiskReadBytes, s.size)
	return v, nil
}

// Has reports whether key exists.
func (d *DirDisk) Has(key string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.index.Load(key)
	return ok && !d.wiped
}

// Delete removes a key; absent keys are ignored.
func (d *DirDisk) Delete(key string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.remove(key)
}

// remove drops key and its value, returning the payload bytes freed.
func (d *DirDisk) remove(key string) int64 {
	at, _ := d.index.LoadAndDelete(key)
	s, _ := at.(slot)
	if s.off >= 0 && s.size > 0 {
		d.pmu.Lock()
		if d.packed--; d.packed == 0 { // nothing placed is left: start over
			d.pack.Truncate(0)
			d.end = 0
		}
		d.pmu.Unlock()
	} else if s.size > 0 {
		os.Remove(d.path(key))
	}
	return s.size
}

// each calls fn with every stored key under prefix and its value's length.
func (d *DirDisk) each(prefix string, fn func(key string, size int64)) {
	d.index.Range(func(k, at any) bool {
		if strings.HasPrefix(k.(string), prefix) {
			fn(k.(string), at.(slot).size)
		}
		return true
	})
}

// DeletePrefix removes every key with the given prefix and returns the
// number of payload bytes freed.
func (d *DirDisk) DeletePrefix(prefix string) (freed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.each(prefix, func(key string, _ int64) { freed += d.remove(key) })
	return freed
}

// UsedBytesPrefix returns the total payload size under keys with the
// given prefix.
func (d *DirDisk) UsedBytesPrefix(prefix string) (used int64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.each(prefix, func(_ string, size int64) { used += size })
	return used
}

// List returns the sorted keys with the given prefix.
func (d *DirDisk) List(prefix string) (out []string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.each(prefix, func(key string, _ int64) { out = append(out, key) })
	sort.Strings(out)
	return out
}

// Wipe marks the disk lost and removes its contents.
func (d *DirDisk) Wipe() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wiped = true
	d.each("", func(key string, _ int64) { d.remove(key) })
	if d.pack != nil {
		d.pack.Close()
		os.Remove(d.pack.Name())
	}
}

// UsedBytes returns the total stored payload size.
func (d *DirDisk) UsedBytes() int64 { return d.UsedBytesPrefix("") }
