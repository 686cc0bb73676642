package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"quokka/internal/metrics"
)

func TestLinkCostDuration(t *testing.T) {
	l := LinkCost{Latency: time.Millisecond, BytesPerS: 1e6}
	if got := l.Duration(0); got != time.Millisecond {
		t.Errorf("Duration(0) = %v", got)
	}
	if got := l.Duration(1e6); got != time.Millisecond+time.Second {
		t.Errorf("Duration(1MB) = %v", got)
	}
	zero := LinkCost{}
	if got := zero.Duration(100); got != 0 {
		t.Errorf("zero link duration = %v", got)
	}
}

func TestCostModelApplyScales(t *testing.T) {
	cm := CostModel{TimeScale: 0}
	start := time.Now()
	cm.Apply(LinkCost{Latency: time.Hour}, 0)
	if time.Since(start) > 50*time.Millisecond {
		t.Error("TimeScale 0 must not sleep")
	}
	cm = CostModel{TimeScale: 0.001}
	start = time.Now()
	cm.Apply(LinkCost{Latency: 2 * time.Second}, 0)
	el := time.Since(start)
	if el < time.Millisecond || el > 500*time.Millisecond {
		t.Errorf("scaled sleep = %v, want ~2ms", el)
	}
}

func TestLocalDisk(t *testing.T) {
	met := &metrics.Collector{}
	d := NewLocalDisk(TestCostModel(), met)
	if err := d.Write("p/1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("p/2", []byte("world!")); err != nil {
		t.Fatal(err)
	}
	v, err := d.Read("p/1")
	if err != nil || string(v) != "hello" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	if !d.Has("p/2") || d.Has("nope") {
		t.Error("Has wrong")
	}
	if got := d.List("p/"); len(got) != 2 || got[0] != "p/1" {
		t.Errorf("List = %v", got)
	}
	if d.UsedBytes() != 11 {
		t.Errorf("UsedBytes = %d", d.UsedBytes())
	}
	if met.Get(metrics.DiskWriteBytes) != 11 {
		t.Errorf("metric = %d", met.Get(metrics.DiskWriteBytes))
	}
	d.Delete("p/1")
	if d.Has("p/1") {
		t.Error("Delete failed")
	}
	if _, err := d.Read("p/1"); err == nil {
		t.Error("want error reading deleted key")
	}
}

func TestLocalDiskWipe(t *testing.T) {
	d := NewLocalDisk(TestCostModel(), nil)
	d.Write("k", []byte("v"))
	d.Wipe()
	if _, err := d.Read("k"); err != ErrWiped {
		t.Errorf("Read after wipe = %v, want ErrWiped", err)
	}
	if err := d.Write("k2", nil); err != ErrWiped {
		t.Errorf("Write after wipe = %v, want ErrWiped", err)
	}
	if d.Has("k") || d.List("") != nil {
		t.Error("wiped disk should be empty")
	}
}

func TestObjectStore(t *testing.T) {
	met := &metrics.Collector{}
	s := NewObjectStore(TestCostModel(), ProfileS3, met)
	if err := s.Put("tbl/0", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	s.PutFree("tbl/1", []byte("defg"))
	v, err := s.Get("tbl/1")
	if err != nil || string(v) != "defg" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if v, err := s.GetFree("tbl/0"); err != nil || string(v) != "abc" {
		t.Errorf("GetFree(tbl/0) = %q, %v", v, err)
	}
	// PutFree must not be billed.
	if met.Get(metrics.ObjWriteBytes) != 3 {
		t.Errorf("billed bytes = %d, want 3", met.Get(metrics.ObjWriteBytes))
	}
	if _, err := s.Get("none"); err == nil {
		t.Error("want error on missing object")
	}
}

// TestObjectStorePutGenCountsLoads: only a table load moves the put
// generation a worker's cache of tables is valid under; a query's put and the
// sweep of its prefix do not, and the sweep takes that prefix alone.
func TestObjectStorePutGenCountsLoads(t *testing.T) {
	s := NewObjectStore(TestCostModel(), ProfileS3, nil)
	s.PutFree("tbl/0", []byte("t"))
	gen := s.PutGen()
	for _, k := range []string{"ft/q1/a", "ft/q1/b", "ft/q12/a"} {
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.DeletePrefix("ft/q1/"); n != 2 || s.PutGen() != gen {
		t.Errorf("swept %d objects, put generation %d -> %d; want 2, unmoved", n, gen, s.PutGen())
	}
	for k, want := range map[string]bool{"tbl/0": true, "ft/q12/a": true, "ft/q1/a": false} {
		if _, err := s.Get(k); (err == nil) != want {
			t.Errorf("%s present = %v after the sweep, want %v", k, err == nil, want)
		}
	}
	s.PutFree("tbl/0", []byte("t2"))
	if s.PutGen() != gen+1 {
		t.Errorf("a table load moved the put generation %d -> %d", gen, s.PutGen())
	}
}

func TestProfileSelectsLink(t *testing.T) {
	cm := TestCostModel()
	s3 := NewObjectStore(cm, ProfileS3, nil)
	hdfs := NewObjectStore(cm, ProfileHDFS, nil)
	if s3.link() != cm.S3 || hdfs.link() != cm.HDFS {
		t.Error("profile link selection wrong")
	}
	if ProfileS3.String() != "s3" || ProfileHDFS.String() != "hdfs" {
		t.Error("profile names wrong")
	}
}

func TestWriteCopiesValue(t *testing.T) {
	d := NewLocalDisk(TestCostModel(), nil)
	buf := []byte("abc")
	d.Write("k", buf)
	buf[0] = 'X'
	v, _ := d.Read("k")
	if string(v) != "abc" {
		t.Error("disk must copy values on write")
	}
}

// TestDirDisk holds the directory-backed disk to LocalDisk's behaviour, plus
// what is its own: a value without bytes is an index entry and no file, small
// values share the pack file, a large one has a file to itself — in every
// combination of overwriting one with another — and the pack starts over when
// its last value is deleted.
func TestDirDisk(t *testing.T) {
	met := &metrics.Collector{}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "stale"), []byte("previous incarnation"), 0o644)
	d, err := NewDirDisk(dir, met)
	if err != nil {
		t.Fatal(err)
	}
	files := func() (names []string) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	if len(files()) != 0 {
		t.Fatalf("%v survived from a previous incarnation", files())
	}
	big := strings.Repeat("spill run ", packValueMax/10+1)
	write := func(key, val string) {
		t.Helper()
		if err := d.Write(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	reads := func(key, want string) {
		t.Helper()
		if v, err := d.Read(key); err != nil || v == nil || string(v) != want {
			t.Fatalf("Read(%s) = %d bytes, %v; want %d bytes", key, len(v), err, len(want))
		}
	}
	write("bk/q1/0.0.0", "hello")
	write("bk/q1/0.0.1", "")
	write("bk/q2/0.0.0", "world!")
	write("spill/q1/r", big)
	if got := files(); len(got) != 2 || got[0] != ".pack" {
		t.Errorf("files %v, want the pack and one spill run", got)
	}
	reads("bk/q1/0.0.0", "hello")
	reads("bk/q1/0.0.1", "")
	reads("bk/q2/0.0.0", "world!")
	reads("spill/q1/r", big)
	if _, err := d.Read("bk/q1/0.0.2"); err == nil {
		t.Error("want error reading a key never written")
	}
	if !d.Has("bk/q1/0.0.1") || !d.Has("bk/q2/0.0.0") || d.Has("nope") {
		t.Error("Has wrong")
	}
	if got := d.List("bk/q1/"); len(got) != 2 || got[0] != "bk/q1/0.0.0" || got[1] != "bk/q1/0.0.1" {
		t.Errorf("List = %v", got)
	}
	total := int64(11 + len(big))
	if d.UsedBytes() != total || d.UsedBytesPrefix("bk/q2/") != 6 || met.Get(metrics.DiskWriteBytes) != total {
		t.Errorf("UsedBytes = %d, under bk/q2/ %d, written %d; want %d, 6, %d", d.UsedBytes(), d.UsedBytesPrefix("bk/q2/"), met.Get(metrics.DiskWriteBytes), total, total)
	}
	// Overwrites across the three ways a value is kept.
	write("bk/q1/0.0.0", "")
	write("bk/q1/0.0.1", "now with rows")
	write("spill/q1/r", "shrunk")
	write("bk/q2/0.0.0", big)
	reads("bk/q1/0.0.0", "")
	reads("bk/q1/0.0.1", "now with rows")
	reads("spill/q1/r", "shrunk")
	reads("bk/q2/0.0.0", big)
	if got := files(); len(got) != 2 {
		t.Errorf("files %v after the overwrites, want the pack and one large value", got)
	}
	if freed := d.DeletePrefix("bk/q1/"); freed != 13 || d.Has("bk/q1/0.0.0") || d.Has("bk/q1/0.0.1") {
		t.Errorf("DeletePrefix freed %d", freed)
	}
	d.Delete("never there")
	d.Delete("spill/q1/r") // the pack's last value
	if fi, err := os.Stat(filepath.Join(dir, ".pack")); err != nil || fi.Size() != 0 {
		t.Errorf("pack after its last value went: %v, %v; want it empty", fi, err)
	}
	write("bk/q3/0.0.0", "again")
	reads("bk/q3/0.0.0", "again")
	if got := d.List(""); len(got) != 2 || got[0] != "bk/q2/0.0.0" {
		t.Errorf("after the deletes List = %v", got)
	}
	d.Wipe()
	if _, err := d.Read("bk/q2/0.0.0"); err != ErrWiped {
		t.Errorf("Read after wipe = %v, want ErrWiped", err)
	}
	if err := d.Write("k", nil); err != ErrWiped {
		t.Errorf("Write after wipe = %v, want ErrWiped", err)
	}
	if d.Has("bk/q2/0.0.0") || d.List("") != nil || d.UsedBytes() != 0 || len(files()) != 0 {
		t.Errorf("wiped disk holds %v in %v", d.List(""), files())
	}
}

// TestDirDiskPackFills: the pack takes packMax bytes between two moments it
// is empty; past that a small value gets a file of its own, and concurrent
// writers never share a byte of it.
func TestDirDiskPackFills(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDirDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.end = packMax - 10 // as if that much had been packed and deleted since
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key, val := fmt.Sprint("k/", i), fmt.Sprint("value-", i) // 7 bytes: one fits, not two
			if err := d.Write(key, []byte(val)); err != nil {
				t.Error(err)
			}
			if v, err := d.Read(key); err != nil || string(v) != val {
				t.Errorf("Read(%s) = %q, %v", key, v, err)
			}
		}()
	}
	wg.Wait()
	ents, _ := os.ReadDir(dir)
	if len(ents) != 8 { // the pack with one value, seven files
		t.Errorf("%d files, want the pack and 7 values with a file each", len(ents))
	}
	if d.DeletePrefix("k/") != 8*7 || d.end != 0 {
		t.Errorf("after deleting everything the pack did not start over (end %d)", d.end)
	}
}
